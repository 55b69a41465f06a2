//! A small deterministic hasher for tables keyed by compiler-assigned ids.
//!
//! The compile passes hash-cons gates and index cones by [`NodeId`]s
//! and MFG ids they number themselves: small dense integers, looked up
//! exactly. SipHash (the std default) spends most of such a lookup
//! mixing a one-word key against a random seed; [`IdHasher`] folds each
//! word in with one multiply and one rotate. Lookups stay exact, so a
//! table's contents — and every netlist and program built from them — do
//! not depend on the hasher; only its speed does. The hash has no seed,
//! so an input crafted against it can collide keys and slow a compile
//! down (never change its result): use these tables where the keys are
//! ids a pass assigned, not strings or values read from a file.
//!
//! [`NodeId`]: crate::NodeId

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher: per word `h = rotl((h ^ word) · K, 26)`, with
/// `K` the odd 64-bit golden-ratio constant. The rotate brings the
/// product's well-mixed high bits down to the low bits a table indexes
/// by.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(K).rotate_left(26);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A [`HashMap`] keyed by compiler-assigned ids, hashed by [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A [`HashSet`] of compiler-assigned ids, hashed by [`IdHasher`].
pub type IdHashSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, Op};
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn the_hash_is_deterministic_and_separates_nearby_ids() {
        let key = (Op::And, NodeId::new(3), NodeId::new(4));
        assert_eq!(hash_of(key), hash_of(key));
        assert_ne!(
            hash_of(key),
            hash_of((Op::And, NodeId::new(4), NodeId::new(3)))
        );
        assert_ne!(
            hash_of(key),
            hash_of((Op::Or, NodeId::new(3), NodeId::new(4)))
        );
        // Dense ids land in distinct low bits, where a table indexes.
        let mut low: Vec<u64> = (0..4096u32)
            .map(|i| hash_of(NodeId::new(i)) & 0xfff)
            .collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 2400, "{} distinct buckets of 4096", low.len());
    }

    #[test]
    fn maps_look_up_exactly() {
        let mut map: IdHashMap<(u32, u32), usize> = IdHashMap::default();
        for i in 0..1000u32 {
            map.insert((i, i * 7), i as usize);
        }
        for i in 0..1000u32 {
            assert_eq!(map.get(&(i, i * 7)), Some(&(i as usize)));
            assert_eq!(map.get(&(i * 7, i)), (i == 0).then_some(&0));
        }
    }
}
