//! Deterministic seed derivation.
//!
//! Every simulation in this framework is a pure function of one `u64` seed.
//! Subsystems (world generation, jitter, landmark hosting, …) each derive
//! their own independent stream from the master seed plus a domain label, so
//! that adding randomness to one subsystem never perturbs another — the
//! property that makes experiment diffs meaningful across code changes.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic seed, convertible into independent sub-seeds by domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Seed(pub u64);

impl Seed {
    /// Derives an independent sub-seed for the given domain label.
    ///
    /// Uses the SplitMix64 finalizer over the XOR of the seed and the FNV-1a
    /// hash of the label: cheap, stateless, and well-distributed.
    pub fn derive(&self, domain: &str) -> Seed {
        Seed(splitmix64(self.0 ^ fnv1a(domain.as_bytes())))
    }

    /// Derives an independent sub-seed for an indexed entity (e.g. trial
    /// number, target id).
    pub fn derive_index(&self, domain: &str, index: u64) -> Seed {
        Seed(splitmix64(
            self.derive(domain).0 ^ splitmix64(index.wrapping_add(0x9E37_79B9_7F4A_7C15)),
        ))
    }

    /// Builds a standard RNG from this seed.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.0)
    }
}

/// A minimal, fast, deterministic RNG: a SplitMix64 counter stream.
///
/// `StdRng` (ChaCha) pays a noticeable key-setup cost per instantiation;
/// simulation hot paths that create one RNG per packet use `KeyRng`
/// instead. Statistical quality is far beyond what latency jitter and loss
/// decisions need, and every stream is a pure function of its seed key.
#[derive(Debug, Clone)]
pub struct KeyRng {
    state: u64,
}

impl KeyRng {
    /// Creates a stream from a 64-bit key.
    #[inline]
    pub fn new(key: u64) -> KeyRng {
        KeyRng {
            state: splitmix64(key),
        }
    }
}

impl rand::RngCore for KeyRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// SplitMix64 finalizer: bijective avalanche mixing of a 64-bit word.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A cheap hasher for integer-keyed tables: one splitmix64 round per
/// written word, starting from a seed. SipHash, the std default, costs
/// more than the lookups it guards in the memo tables and the serve cache.
///
/// It is its own [`BuildHasher`](std::hash::BuildHasher): every hasher it
/// builds starts from the same seed. `MixHasher::default()` is seed 0,
/// which keeps a table's layout a pure function of its keys. A table that
/// takes keys from clients passes a secret seed to
/// [`MixHasher::with_seed`], so no client can aim keys at one probe chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixHasher {
    state: u64,
}

impl MixHasher {
    /// A hasher starting from `seed`.
    pub fn with_seed(seed: u64) -> MixHasher {
        MixHasher { state: seed }
    }
}

impl std::hash::Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = splitmix64(self.state ^ b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = splitmix64(self.state ^ v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
}

impl std::hash::BuildHasher for MixHasher {
    type Hasher = MixHasher;

    #[inline]
    fn build_hasher(&self) -> MixHasher {
        *self
    }
}

/// FNV-1a hash of a byte string. `const` so that fixed domain labels
/// (`b"jitter"`, `b"loss"`, …) hash at compile time on measurement hot
/// paths instead of re-walking the literal per packet.
pub const fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        i += 1;
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derive_is_deterministic() {
        let s = Seed(42);
        assert_eq!(s.derive("world"), s.derive("world"));
        assert_eq!(s.derive_index("trial", 7), s.derive_index("trial", 7));
    }

    #[test]
    fn domains_are_independent() {
        let s = Seed(42);
        assert_ne!(s.derive("world"), s.derive("jitter"));
        assert_ne!(s.derive_index("trial", 0), s.derive_index("trial", 1));
    }

    #[test]
    fn different_master_seeds_diverge() {
        assert_ne!(Seed(1).derive("world"), Seed(2).derive("world"));
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut a = Seed(7).derive("x").rng();
        let mut b = Seed(7).derive("x").rng();
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn key_rng_is_deterministic_and_uniform() {
        use rand::RngCore;
        let mut a = KeyRng::new(99);
        let mut b = KeyRng::new(99);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Rough uniformity of the unit floats derived from the stream.
        let mut c = KeyRng::new(1234);
        let mean: f64 = (0..4000)
            .map(|_| (c.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
            .sum::<f64>()
            / 4000.0;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn key_rng_fill_bytes_handles_remainders() {
        use rand::RngCore;
        let mut rng = KeyRng::new(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn splitmix_avalanche() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = splitmix64(0x1234_5678);
        let b = splitmix64(0x1234_5679);
        let flips = (a ^ b).count_ones();
        assert!((16..=48).contains(&flips), "weak avalanche: {flips} flips");
    }

    #[test]
    fn mix_hasher_is_one_splitmix_round_from_its_seed() {
        use std::hash::{BuildHasher, Hasher};
        let mut h = MixHasher::default();
        h.write_u64(77);
        assert_eq!(h.finish(), splitmix64(77));
        assert_eq!(MixHasher::with_seed(9).hash_one(77u64), splitmix64(9 ^ 77));
        // A `u32` hashes as its widened `u64`.
        assert_eq!(MixHasher::default().hash_one(5u32), splitmix64(5));
    }

    #[test]
    fn fnv_distinguishes_labels() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"acb"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }
}
