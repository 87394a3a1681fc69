//! A fast, non-cryptographic hasher for the interpreter's variable maps.
//!
//! The interpreter resolves scalar and array names through `HashMap`s
//! wherever it goes by name: each unit's name table, and every kernel
//! entry and hook call against it. This is the classic FNV-1a-with-multiply mix (the
//! rustc "Fx" construction): excellent for short identifier keys, not
//! HashDoS-resistant — which is irrelevant for interpreting trusted
//! Fortran sources. Only the allowed dependency set is used (none).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative word-at-a-time hasher (Fx construction).
#[derive(Default)]
pub struct FastHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with the fast hasher.
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(s: &str) -> u64 {
        FastBuild::default().hash_one(s)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of("acflo1"), hash_of("acflo1"));
    }

    #[test]
    fn distinguishes_typical_identifiers() {
        use std::collections::BTreeSet;
        let names = [
            "i", "j", "k", "it", "err", "v", "vn", "u1", "u2", "f1", "f2", "acflo1", "acfhi1",
            "acflo2", "acfhi2", "psi", "psin", "coarse", "fine", "resid",
        ];
        let hashes: BTreeSet<u64> = names.iter().map(|n| hash_of(n)).collect();
        assert_eq!(
            hashes.len(),
            names.len(),
            "no collisions among common names"
        );
    }

    #[test]
    fn map_works_as_drop_in() {
        let mut m: FastMap<String, i32> = FastMap::default();
        m.insert("x".into(), 1);
        m.insert("y".into(), 2);
        assert_eq!(m.get("x"), Some(&1));
        assert_eq!(m.get("z"), None);
        assert_eq!(m.len(), 2);
    }
}
