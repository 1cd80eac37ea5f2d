//! Content hashing for the artifact cache.
//!
//! Pipeline artifacts (parsed AST, lowered bytecode, dependence profiles,
//! plans, transformed programs, verify reports) are cached keyed by a
//! *content hash* of their inputs, so identical requests collapse onto one
//! computation and an edit only invalidates the phases downstream of it.
//! The hash is 128-bit FNV-1a taken a word at a time: each 8-byte
//! little-endian word of a field is xored in and multiplied by the FNV
//! prime once, and a field's last `len % 8` bytes go in one by one. That
//! is one `u128` multiply per 8 bytes instead of per byte; each step is
//! still a bijection of the state for a given prefix, so two inputs that
//! differ in one word never meet. It is dependency-free, byte-stable
//! across runs and platforms, and wide enough that accidental collisions
//! are not a practical concern for a per-process cache. It is **not**
//! collision-resistant against adversaries; the store is a cache, not a
//! trust boundary.
//!
//! [`ContentHasher`] length-prefixes every field, so `("ab", "c")` and
//! `("a", "bc")` hash differently.

use std::fmt;

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A 128-bit content hash, displayed as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl ContentHash {
    /// Parses the 32-hex-digit form emitted by `Display`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed input.
    pub fn parse(s: &str) -> Result<ContentHash, String> {
        if s.len() != 32 {
            return Err(format!(
                "content hash must be 32 hex digits, got {}",
                s.len()
            ));
        }
        u128::from_str_radix(s, 16)
            .map(ContentHash)
            .map_err(|e| format!("bad content hash '{s}': {e}"))
    }
}

/// Incremental word-wise FNV-1a 128 hasher with length-prefixed field
/// framing.
///
/// ```
/// use dse_telemetry::hash::ContentHasher;
/// let a = ContentHasher::new("parse").str("int main(){}").finish();
/// let b = ContentHasher::new("parse").str("int main(){}").finish();
/// assert_eq!(a, b);
/// let c = ContentHasher::new("lower").str("int main(){}").finish();
/// assert_ne!(a, c, "the phase tag separates key spaces");
/// ```
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u128,
}

impl ContentHasher {
    /// A hasher seeded with a domain/phase tag so each phase has its own
    /// key space.
    pub fn new(tag: &str) -> ContentHasher {
        ContentHasher { state: FNV_OFFSET }.str(tag)
    }

    fn mix(&mut self, v: u64) {
        self.state = (self.state ^ v as u128).wrapping_mul(FNV_PRIME);
    }

    fn raw(mut self, bytes: &[u8]) -> ContentHasher {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("chunks of 8")));
        }
        for &b in words.remainder() {
            self.mix(b as u64);
        }
        self
    }

    /// Mixes a byte field (length-prefixed).
    pub fn bytes(self, bytes: &[u8]) -> ContentHasher {
        self.raw(&(bytes.len() as u64).to_le_bytes()).raw(bytes)
    }

    /// Mixes a string field.
    pub fn str(self, s: &str) -> ContentHasher {
        self.bytes(s.as_bytes())
    }

    /// Mixes a signed integer field.
    pub fn i64(self, v: i64) -> ContentHasher {
        self.raw(&v.to_le_bytes())
    }

    /// Mixes an unsigned integer field.
    pub fn u64(self, v: u64) -> ContentHasher {
        self.raw(&v.to_le_bytes())
    }

    /// Mixes a boolean field.
    pub fn bool(self, v: bool) -> ContentHasher {
        self.raw(&[v as u8])
    }

    /// Mixes an upstream artifact hash.
    pub fn hash(self, h: ContentHash) -> ContentHasher {
        self.raw(&h.0.to_le_bytes())
    }

    /// Mixes a slice of integers (length-prefixed).
    pub fn i64s(self, vs: &[i64]) -> ContentHasher {
        vs.iter().fold(self.u64(vs.len() as u64), |h, &v| h.i64(v))
    }

    /// The finished hash.
    pub fn finish(self) -> ContentHash {
        ContentHash(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_across_builders() {
        let h = |src: &str| ContentHasher::new("t").str(src).i64(4).finish();
        assert_eq!(h("abc"), h("abc"));
        assert_ne!(h("abc"), h("abd"));
    }

    #[test]
    fn field_framing_prevents_concatenation_aliasing() {
        let a = ContentHasher::new("t").str("ab").str("c").finish();
        let b = ContentHasher::new("t").str("a").str("bc").finish();
        assert_ne!(a, b);
    }

    /// Whole words and the byte-wise tail alike: changing any one byte of
    /// a field changes the hash, and no two such changes agree.
    #[test]
    fn every_byte_position_matters() {
        let base = b"nineteen-byte field".to_vec();
        let h = |bytes: &[u8]| ContentHasher::new("t").bytes(bytes).finish();
        let mut seen = std::collections::HashSet::from([h(&base)]);
        for i in 0..base.len() {
            let mut edited = base.clone();
            edited[i] ^= 0x20;
            assert!(seen.insert(h(&edited)), "byte {i}");
        }
    }

    #[test]
    fn display_round_trips() {
        let h = ContentHasher::new("t").str("xyz").finish();
        let text = h.to_string();
        assert_eq!(text.len(), 32);
        assert_eq!(ContentHash::parse(&text).unwrap(), h);
        assert!(ContentHash::parse("zz").is_err());
    }

    #[test]
    fn integer_slices_are_length_prefixed() {
        let a = ContentHasher::new("t").i64s(&[1, 2]).i64s(&[3]).finish();
        let b = ContentHasher::new("t").i64s(&[1]).i64s(&[2, 3]).finish();
        assert_ne!(a, b);
    }
}
