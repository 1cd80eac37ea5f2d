//! The one hasher of the compiler's in-memory maps.
//!
//! std's default `SipHash` costs a dozen rounds per key; the compile path
//! hashes little more than ids, pcs and small tuples of them, millions of
//! times per compile. [`FastHasher`] folds each 64-bit word into its state
//! with one 128-bit multiply, keyed by two seeds drawn once per process
//! from std's [`RandomState`]. The keys matter: a daemon compiles source
//! its clients send, and program immediates reach the verifier's term
//! keys, so an unkeyed hash (Fx) would let crafted source collide them.
//! The seeds also keep map iteration order varying between processes, as
//! std's does, so no output can come to depend on it.
//!
//! Content keys (what the artifact store is addressed by) do not use this
//! hasher; they are `dse_telemetry::ContentHasher`'s, stable across runs.

#![allow(clippy::disallowed_types)] // the one place that names std's maps

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// `std::collections::HashMap` under [`FastState`].
pub type HashMap<K, V> = std::collections::HashMap<K, V, FastState>;
/// `std::collections::HashSet` under [`FastState`].
pub type HashSet<T> = std::collections::HashSet<T, FastState>;

/// The process's two seeds, drawn from [`RandomState`] on first use.
#[inline]
fn seeds() -> [u64; 2] {
    static SEEDS: OnceLock<[u64; 2]> = OnceLock::new();
    *SEEDS.get_or_init(|| seeds_from(&RandomState::new()))
}

/// Two seeds from `s`'s secret keys: its hashes of 0 and 1. An odd
/// multiplier keeps each product a bijection of the state.
fn seeds_from(s: &RandomState) -> [u64; 2] {
    [s.hash_one(0u64), s.hash_one(1u64) | 1]
}

/// The lower and upper halves of the 128-bit product, xor-ed.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    full as u64 ^ (full >> 64) as u64
}

/// Builds [`FastHasher`]s under the process's seeds.
#[derive(Clone, Copy, Debug)]
pub struct FastState {
    seed: u64,
    multiplier: u64,
}

impl Default for FastState {
    #[inline]
    fn default() -> Self {
        let [seed, multiplier] = seeds();
        FastState { seed, multiplier }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher {
            state: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// A keyed folded-multiply hasher: one `u128` product per 64-bit word.
#[derive(Clone, Debug)]
pub struct FastHasher {
    state: u64,
    multiplier: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // The tail's length in the free top byte: "a" and "a\0" differ.
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            tail[7] = rest.len() as u8;
            self.write_u64(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = folded_multiply(self.state ^ i, self.multiplier);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash<T: Hash + ?Sized>(x: &T) -> u64 {
        FastState::default().hash_one(x)
    }

    #[test]
    fn equal_keys_hash_equal_within_a_process() {
        let pairs = [(3u32, 7u32), (0, 0), (u32::MAX, 1)];
        for p in pairs {
            assert_eq!(hash(&p), hash(&{ p }));
        }
        assert_eq!(hash(&"loop_a".to_string()), hash(&"loop_a"));
        // Two builders share the process's seeds.
        let (a, b) = (FastState::default(), FastState::default());
        assert_eq!(a.hash_one(42u64), b.hash_one(42u64));
    }

    #[test]
    fn distinct_small_keys_do_not_collide() {
        let mut seen = HashSet::default();
        for i in 0..1u64 << 16 {
            assert!(seen.insert(hash(&i)), "collision at {i}");
        }
        // Tails of different lengths stay apart.
        assert_ne!(hash(&[1u8][..]), hash(&[1u8, 0][..]));
        let mut h = FastState::default().build_hasher();
        h.write(b"a");
        let mut g = FastState::default().build_hasher();
        g.write(b"a\0");
        assert_ne!(h.finish(), g.finish());
    }

    #[test]
    fn seeds_come_from_random_state() {
        let [seed, multiplier] = seeds();
        assert_eq!(seeds(), [seed, multiplier], "drawn once per process");
        assert_eq!(multiplier & 1, 1);
        // Each RandomState has keys of its own, so seeds drawn from two
        // differ: a process's maps do not share an order with another's.
        let (a, b) = (RandomState::new(), RandomState::new());
        assert_eq!(seeds_from(&a), seeds_from(&a));
        assert_ne!(seeds_from(&a), seeds_from(&b));
    }
}
