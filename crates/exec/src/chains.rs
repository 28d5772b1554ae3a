//! A chained hash index over dense `u32` ids.
//!
//! The index stores hashes only; the caller owns the keys, hashes them
//! with [`hash_key`] and compares the ids a chain yields against its own
//! storage. Nothing is allocated per entry, which is what lets the hash
//! join ([`crate::physical`]) and the group table ([`crate::program`])
//! key on values borrowed from the rows they index.

use mv_catalog::Value;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

const NIL: u32 = u32::MAX;

/// Hash of a composite key. Relies on `Value`'s contract that equal
/// values (including an `Int` and the `Float` it equals) hash equally.
pub(crate) fn hash_key<'v>(state: &RandomState, key: impl Iterator<Item = &'v Value>) -> u64 {
    let mut h = state.build_hasher();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// Bucket heads plus one `next` link and one stored hash per id.
#[derive(Debug, Default)]
pub(crate) struct HashChains {
    /// Power-of-two bucket array (empty until the first id exists).
    heads: Vec<u32>,
    next: Vec<u32>,
    hashes: Vec<u64>,
}

impl HashChains {
    /// An index for the ids `0..n`, none of them linked yet.
    pub(crate) fn with_ids(n: usize) -> Self {
        debug_assert!(n < NIL as usize, "id space exceeds u32");
        HashChains {
            heads: vec![NIL; (2 * n).next_power_of_two()],
            next: vec![NIL; n],
            hashes: vec![0; n],
        }
    }

    /// Forget every id, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.heads.clear();
        self.next.clear();
        self.hashes.clear();
    }

    /// Link `id` under `hash`. An id is linked at most once.
    pub(crate) fn link(&mut self, id: u32, hash: u64) {
        let bucket = hash as usize & (self.heads.len() - 1);
        self.hashes[id as usize] = hash;
        self.next[id as usize] = self.heads[bucket];
        self.heads[bucket] = id;
    }

    /// Add the next id (`0, 1, 2, …` in call order) under `hash`, doubling
    /// the bucket array whenever it would be more than half full.
    pub(crate) fn push(&mut self, hash: u64) {
        let id = self.next.len();
        debug_assert!(id < NIL as usize, "id space exceeds u32");
        self.next.push(NIL);
        self.hashes.push(hash);
        if 2 * (id + 1) > self.heads.len() {
            self.heads.clear();
            self.heads.resize((4 * (id + 1)).next_power_of_two(), NIL);
            for old in 0..=id {
                self.link(old as u32, self.hashes[old]);
            }
        } else {
            self.link(id as u32, hash);
        }
    }

    /// The linked ids whose stored hash equals `hash`.
    pub(crate) fn chain(&self, hash: u64) -> impl Iterator<Item = u32> + '_ {
        let mut cur = match self.heads.len() {
            0 => NIL,
            n => self.heads[hash as usize & (n - 1)],
        };
        std::iter::from_fn(move || {
            while cur != NIL {
                let id = cur;
                cur = self.next[id as usize];
                if self.hashes[id as usize] == hash {
                    return Some(id);
                }
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushed_ids_survive_growth_and_chains_filter_by_hash() {
        let mut t = HashChains::default();
        assert_eq!(t.chain(7).count(), 0);
        // Hashes collide in the low bits on purpose.
        for id in 0..1000u64 {
            t.push((id % 10) << 32 | 5);
        }
        for k in 0..10u64 {
            let mut ids: Vec<u32> = t.chain(k << 32 | 5).collect();
            ids.sort_unstable();
            let want: Vec<u32> = (0..1000).filter(|id| id % 10 == k as u32).collect();
            assert_eq!(ids, want);
        }
        t.clear();
        assert_eq!(t.chain(5).count(), 0);
        t.push(5);
        assert_eq!(t.chain(5).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn unlinked_ids_are_never_yielded() {
        let mut t = HashChains::with_ids(4);
        t.link(1, 9);
        t.link(3, 9);
        let mut ids: Vec<u32> = t.chain(9).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(HashChains::with_ids(0).chain(9).count(), 0);
    }

    #[test]
    fn int_and_equal_float_hash_alike() {
        let s = RandomState::new();
        let a = [Value::Int(3), Value::Null];
        let b = [Value::Float(3.0), Value::Null];
        assert_eq!(hash_key(&s, a.iter()), hash_key(&s, b.iter()));
    }
}
