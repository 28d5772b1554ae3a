//! A chained hash index over dense `u32` ids.
//!
//! The index stores hashes only; the caller owns the keys, hashes them
//! with [`hash_key`] (or, for one dense `Int` key, addresses it by offset)
//! and compares the ids a chain yields against its own storage. Nothing is
//! allocated per entry, which is what lets a plan program's join indexes
//! and its group table ([`crate::program`]) key on values borrowed from
//! the rows they index. `mv-maintain` keys
//! its counting state on the group columns of a view's served rows with
//! it, and pairs a delta's deleted and inserted rows through it; both
//! remove ids ([`HashChains::unlink`], [`HashChains::swap_remove`]).
//!
//! Keys are row data that writers control, so they are hashed with the
//! keyed SipHash of a per-table `RandomState`: one pass per key through
//! [`KeyHasher`], bit-identical to hashing each value in turn.

use mv_catalog::{KeyHasher, Value};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

const NIL: u32 = u32::MAX;

/// Hash of a composite key. Relies on `Value`'s contract that equal
/// values (including an `Int` and the `Float` it equals) hash equally.
pub fn hash_key<'v>(state: &RandomState, key: impl Iterator<Item = &'v Value>) -> u64 {
    let mut h = KeyHasher::new(state.build_hasher());
    for v in key {
        h.push(v);
    }
    h.finish()
}

/// Bucket heads plus one `next` link and one stored hash per id.
#[derive(Debug, Default)]
pub struct HashChains {
    /// Power-of-two bucket array (empty until the first id exists).
    heads: Vec<u32>,
    next: Vec<u32>,
    hashes: Vec<u64>,
}

impl HashChains {
    /// Forget every id and make room for the ids `0..n`, none of them
    /// linked yet, under at least `buckets` buckets, keeping the
    /// allocations.
    pub(crate) fn reset(&mut self, n: usize, buckets: usize) {
        debug_assert!(n < NIL as usize, "id space exceeds u32");
        self.heads.clear();
        self.heads.resize(buckets.next_power_of_two(), NIL);
        self.next.clear();
        self.next.resize(n, NIL);
        self.hashes.clear();
        self.hashes.resize(n, 0);
    }

    /// Forget every id, keeping the allocations.
    pub fn clear(&mut self) {
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
    pub fn push(&mut self, hash: u64) {
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

    /// Take `id` out of its chain (no-op when it is not linked). The id
    /// keeps its number and can be linked again.
    pub fn unlink(&mut self, id: u32) {
        if self.heads.is_empty() {
            return;
        }
        let bucket = self.hashes[id as usize] as usize & (self.heads.len() - 1);
        let after = std::mem::replace(&mut self.next[id as usize], NIL);
        if self.heads[bucket] == id {
            self.heads[bucket] = after;
            return;
        }
        let mut cur = self.heads[bucket];
        while cur != NIL {
            if self.next[cur as usize] == id {
                self.next[cur as usize] = after;
                return;
            }
            cur = self.next[cur as usize];
        }
    }

    /// Remove `id` the way `Vec::swap_remove` removes an element: the last
    /// id takes its number (and keeps its hash), and the id space shrinks
    /// by one. Callers mirror the move in their own storage.
    pub fn swap_remove(&mut self, id: u32) {
        let last = self.next.len() as u32 - 1;
        self.unlink(id);
        if id != last {
            let hash = self.hashes[last as usize];
            self.unlink(last);
            self.link(id, hash);
        }
        self.next.pop();
        self.hashes.pop();
    }

    /// The linked ids whose stored hash equals `hash`.
    pub fn chain(&self, hash: u64) -> impl Iterator<Item = u32> + '_ {
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
        let mut t = HashChains::default();
        t.reset(4, 8);
        t.link(1, 9);
        t.link(3, 9);
        let mut ids: Vec<u32> = t.chain(9).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
        t.reset(0, 0);
        assert_eq!(t.chain(9).count(), 0);
    }

    /// Removal under colliding hashes: every removed id leaves its chain,
    /// the moved last id answers under its old hash at its new number, and
    /// ids pushed afterwards index correctly.
    #[test]
    fn swap_remove_renumbers_the_last_id_under_colliding_hashes() {
        let mut t = HashChains::default();
        // Three ids share one hash and five another, and the two hashes
        // collide in the low bits on purpose.
        let hash = |id: u32| {
            if id.is_multiple_of(3) {
                1u64 << 40 | 5
            } else {
                2u64 << 40 | 5
            }
        };
        let mut ids: Vec<u32> = (0..8).collect();
        for &id in &ids {
            t.push(hash(id));
        }
        let check = |t: &HashChains, ids: &[u32]| {
            for h in [hash(0), hash(1)] {
                let mut got: Vec<u32> = t.chain(h).map(|slot| ids[slot as usize]).collect();
                got.sort_unstable();
                let mut want: Vec<u32> = ids.iter().copied().filter(|&id| hash(id) == h).collect();
                want.sort_unstable();
                assert_eq!(got, want, "chain {h:#x}");
            }
        };
        // Remove from the middle, the head of a chain, the last slot, and
        // down to empty, mirroring each move in `ids`.
        for slot in [3u32, 0, 5, 0, 2, 1, 1, 0] {
            t.swap_remove(slot);
            ids.swap_remove(slot as usize);
            check(&t, &ids);
        }
        // Emptied, so the next id pushed is 0 again.
        t.push(hash(0));
        assert_eq!(t.chain(hash(0)).collect::<Vec<_>>(), vec![0]);
        // An unlinked id is skipped, and unlinking it twice is harmless.
        t.push(hash(0));
        t.unlink(0);
        t.unlink(0);
        assert_eq!(t.chain(hash(0)).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn int_and_equal_float_hash_alike() {
        let s = RandomState::new();
        let a = [Value::Int(3), Value::Null];
        let b = [Value::Float(3.0), Value::Null];
        assert_eq!(hash_key(&s, a.iter()), hash_key(&s, b.iter()));
    }

    /// The packed pass is bit-identical to `Value::hash` streamed value by
    /// value through the same keyed hasher, so every equality the `Hash`
    /// contract promises carries over.
    #[test]
    fn packed_hash_equals_the_streamed_hash() {
        use std::hash::{Hash, Hasher};
        let s = RandomState::new();
        let streamed = |key: &[Value]| {
            let mut h = s.build_hasher();
            for v in key {
                v.hash(&mut h);
            }
            h.finish()
        };
        let values = [
            Value::Null,
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::from(""),
            Value::from("abc"),
            // Longer than the packing buffer: written straight through.
            Value::from("x".repeat(300)),
            Value::Date(-3),
            Value::Date(10_000),
        ];
        for a in &values {
            for b in &values {
                let key = [a.clone(), b.clone()];
                assert_eq!(hash_key(&s, key.iter()), streamed(&key), "{key:?}");
            }
        }
        // More values than the buffer holds, cut at every length so the
        // buffer fills at every offset of a value.
        let wide: Vec<Value> = values.iter().cycle().take(80).cloned().collect();
        for n in 0..=wide.len() {
            assert_eq!(hash_key(&s, wide[..n].iter()), streamed(&wide[..n]));
        }
        // Equal values hash alike: 0.0 and -0.0, Int(3) and Float(3.0),
        // and two NaNs.
        for (a, b) in [(3, 4), (1, 2), (5, 6)] {
            let (a, b) = (&values[a], &values[b]);
            assert_eq!(hash_key(&s, [a].into_iter()), hash_key(&s, [b].into_iter()));
        }
    }
}
