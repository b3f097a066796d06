//! A fast, deterministic hasher for in-memory analysis tables.
//!
//! The analyses probe small integer-keyed tables millions of times per
//! compile (BDD unique tables and memos, predicate facts, liveness and
//! dependence builders). `std`'s default SipHash resists keys crafted to
//! collide, and costs several times more per probe than this
//! multiply-rotate scheme in the style of rustc's `FxHasher`. These keys
//! are ids the compiler allocates itself (registers, ops, blocks, BDD
//! nodes); keep the default hasher for keys that arrive from outside the
//! program. The state is seedless, so iteration order is the same on every
//! run. On-disk keys use [`Fnv64`](crate::Fnv64), whose output is pinned.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the one rustc's `FxHasher` uses).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A word-at-a-time multiplicative hasher for trusted, in-memory keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; the rotate moves
    /// them down to the low bits `HashMap` indexes its buckets with.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`FxHasher`]; build one with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed through [`FxHasher`]; build one with `default()`.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        assert_eq!(hash_of(&(3u32, 7u32)), hash_of(&(3u32, 7u32)));
        assert_ne!(hash_of(&(3u32, 7u32)), hash_of(&(7u32, 3u32)));
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
        assert_ne!(hash_of(&[0u8; 9][..]), hash_of(&[0u8; 8][..]));
    }

    #[test]
    fn small_keys_spread_over_low_bits() {
        // Sequential ids (the common key) must not pile into a few buckets
        // of a small table.
        let buckets: FxHashSet<u64> = (0u32..64).map(|i| hash_of(&i) & 63).collect();
        assert!(buckets.len() >= 32, "{} distinct low-6-bit buckets", buckets.len());
    }

    #[test]
    fn maps_behave_like_std() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000).all(|i| m[&i] == i * 2));
    }
}
