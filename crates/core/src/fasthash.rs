//! A fast, non-cryptographic hasher for the hot counter maps.
//!
//! The volume builders key maps by dense `u32` ids ([`crate::types::SourceId`],
//! [`crate::types::ResourceId`]) and small tuples of them; SipHash's
//! DoS-resistance buys nothing there and costs a large fraction of the
//! builder's runtime. This is the FxHash multiply-rotate mix used by rustc
//! (public-domain algorithm): one wrapping multiply and a rotate per word,
//! with all integer writes funneled through `write_u64`.
//!
//! Only used for internal state keyed by trusted, dense ids — never for
//! anything fed by network input.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Default-constructible builder for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc FxHash word hasher.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

/// One-shot FxHash of a single word — shard selection wants a plain
/// `u64 -> u64` mix without `Hasher` ceremony.
#[inline]
pub fn fx_hash_u64(word: u64) -> u64 {
    let mut h = FxHasher::default();
    h.add_to_hash(word);
    h.finish()
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ResourceId, SourceId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(&ResourceId(7)), hash_of(&ResourceId(7)));
        assert_ne!(hash_of(&ResourceId(7)), hash_of(&ResourceId(8)));
        assert_ne!(
            hash_of(&(SourceId(1), ResourceId(2))),
            hash_of(&(SourceId(2), ResourceId(1)))
        );
    }

    #[test]
    fn maps_work_with_tuple_keys() {
        let mut m: FxHashMap<(ResourceId, ResourceId), u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((ResourceId(i), ResourceId(i * 3)), i as u64);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(ResourceId(41), ResourceId(123))), Some(&41));
        assert_eq!(m.get(&(ResourceId(41), ResourceId(122))), None);
    }

    #[test]
    fn byte_writes_cover_remainders() {
        // Strings exercise the chunked `write` path (7-byte tail).
        assert_ne!(hash_of(&"abcdefg"), hash_of(&"abcdefh"));
        assert_eq!(hash_of(&"abcdefg"), hash_of(&"abcdefg"));
    }
}
