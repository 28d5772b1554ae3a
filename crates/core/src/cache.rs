//! The engine's epoch-stamped caches: bound query blocks mapped to the
//! matcher's *verdict* — which views passed the full tests — and to the
//! optimizer's whole-query plans — two instances of one store,
//! [`EpochCache`].
//!
//! Serving workloads are dominated by repeated query *templates* — the
//! cross-query commonality that multi-query optimization exploits. Which
//! views can answer a query depends only on the query block and on the
//! engine's registered state (views + check constraints), so a repeated
//! block can skip the filter-tree walk and every failing candidate:
//!
//! - [`fingerprint`] hashes an [`SpjgExpr`] through its derived `Hash`.
//!   Both caches key on the block itself: the hash files the entry, and
//!   the block, compared with [`SpjgExpr::identical`], guards it — so
//!   blocks that differ in output names, FROM-list order or a literal's
//!   variant (`2` and `2.0`) are separate entries (DESIGN.md §11.6).
//! - [`EpochCache`] is a mutex-striped shard array keyed by a 64-bit
//!   hash, generic over the [`Guard`] an entry is compared on and the
//!   value it holds, with GreedyDual eviction per shard (Young; Cao &
//!   Irani's GreedyDual-Size is the sized form): each entry carries what
//!   recomputing it costs, and a full shard evicts the entry whose cost,
//!   aged by the shard's rising floor, is lowest. [`SubstituteCache`] is
//!   the instance guarded by the block; the plan instance (DESIGN.md
//!   §11.4) is guarded by the block and an optimizer-config tag. Entries
//!   carry a *per-table epoch stamp*: the invalidation epoch of each base
//!   table the keyed query touches, captured from the catalog snapshot
//!   the value was computed under. Registration (`add_view` /
//!   `remove_view`) bumps only the epochs of the view's own tables, and
//!   `add_check_constraint` only its table's — so an entry whose query
//!   touches disjoint tables keeps a matching stamp and survives the
//!   write. (A view can only answer a query whose tables are a subset of
//!   the view's, so bumping the view's tables covers every query whose
//!   result could change.) Stale entries are lazily discarded on their
//!   next lookup — registering a view never takes a stop-the-world pass
//!   over the cache.
//!
//! A substitute-cache entry holds the [`Verdict`] of every view that
//! passed the full tests ([`CachedVerdicts`]). A hit applies the pinned
//! snapshot's freshness gate to each cached verdict: a verdict-yield hit
//! (`find_verdicts`) serves the admitted verdicts as they are, and a
//! substitute-yield hit re-runs the full tests over the admitted views
//! only, building their substitutes for the probing query with the
//! freshness the snapshot's data epochs give each view. Base-table writes
//! therefore leave substitute entries alone (DESIGN.md §11.1, §11.7);
//! debug builds prove a hit equals a fresh computation with a
//! differential assertion. A plan carries the same per-table
//! stamp, plus one freshness counter when the engine's policy is not
//! `StaleOk`: then a write round or a restamp, which can change which
//! views the gate admits, makes every plan stale (DESIGN.md §11.4).

use crate::matching::{FreshnessPolicy, Verdict};
use crate::snapshot::CatalogSnapshot;
use crate::sync::{lock_or_recover, Arc, Mutex};
use crate::{MatchingEngine, ViewsGuard};
use mv_catalog::TableId;
use mv_plan::{SpjgExpr, ViewId};
use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A query block's 64-bit hash: the substitute cache's key, and, combined
/// with an optimizer-config tag, the plan cache's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// The block's derived `Hash` through the standard hasher. Blocks
    /// equal under `==` hash equal, so `a * 2` and `a * 2.0` collide
    /// here and are told apart by the entry's [`Guard`].
    pub hash: u64,
}

/// Hash `query` for a cache probe.
pub fn fingerprint(query: &SpjgExpr) -> Fingerprint {
    let mut hasher = DefaultHasher::new();
    query.hash(&mut hasher);
    Fingerprint {
        hash: hasher.finish(),
    }
}

/// What a cache entry is the value *of*. An insert under a hash whose
/// entry has another guard replaces that entry, and counts as an eviction.
pub trait Guard {
    /// Do `self` and `other` key the same value?
    fn same(&self, other: &Self) -> bool;
}

impl Guard for u64 {
    fn same(&self, other: &Self) -> bool {
        self == other
    }
}

impl Guard for SpjgExpr {
    /// [`SpjgExpr::identical`], not `==`: that would serve `a * 2.0` the
    /// value of `a * 2`.
    fn same(&self, other: &Self) -> bool {
        self.identical(other)
    }
}

impl<A: Guard, B: Guard> Guard for (A, B) {
    fn same(&self, other: &Self) -> bool {
        self.0.same(&other.0) && self.1.same(&other.1)
    }
}

/// One cached value: its collision guard, the per-table epoch stamp it
/// was computed under, and its GreedyDual cost and priority.
#[derive(Debug)]
struct Entry<G, V> {
    hash: u64,
    /// What the entry is the value *of*, compared on every probe so a
    /// 64-bit hash collision degrades to a miss.
    guard: G,
    /// Per-table invalidation epochs of the key's (sorted, deduplicated)
    /// base tables, captured at computation time. A mismatch on lookup
    /// means some table the key touches saw a change the value depends
    /// on since. Equal guards reference the same table set, so the
    /// stamps compare positionally.
    stamp: Vec<u64>,
    value: V,
    /// What recomputing the value costs, in the caller's unit.
    cost: u64,
    /// The shard's floor at the entry's last insert or hit, plus `cost`.
    priority: u64,
}

/// One mutex-striped shard: a fixed slot array, a hash → slot index, and
/// the GreedyDual floor — the priority of the last entry evicted, which
/// every insert and hit adds its cost to, so an entry not used for a
/// while ages below newer ones of the same cost.
#[derive(Debug)]
struct Shard<G, V> {
    slots: Vec<Option<Entry<G, V>>>,
    index: HashMap<u64, usize>,
    floor: u64,
}

/// Outcome of a cache probe.
#[derive(Debug)]
pub enum CacheLookup<V> {
    /// A live entry's value.
    Hit(V),
    /// An entry existed but some table its key touches changed since; it
    /// has been discarded (lazy invalidation).
    Stale,
    /// No entry.
    Miss,
    /// The cache is disabled (capacity 0).
    Disabled,
}

/// The sharded, epoch-stamped store behind both of the engine's caches:
/// values of type `V` filed under a 64-bit hash, each guarded by the `G`
/// it is the value of and stamped with the epochs of its tables. All
/// methods take `&self`; each shard is an independent [`Mutex`], so
/// concurrent callers only contend when their hashes land on the same
/// stripe.
#[derive(Debug)]
pub struct EpochCache<G, V> {
    shards: Vec<Mutex<Shard<G, V>>>,
    per_shard: usize,
}

/// The substitute cache: the bound block as the guard, and as the value
/// the matcher's structural verdicts, behind an `Arc` so a hit clones a
/// pointer under the stripe's lock.
pub type SubstituteCache = EpochCache<SpjgExpr, Arc<CachedVerdicts>>;

/// A substitute-cache entry's value: the candidate count of the original
/// computation (replayed into the stats on every hit, so counter totals
/// stay path-independent) and the [`Verdict`] of every view that passed
/// the full tests, freshness not applied. Packed: one 8-byte record a
/// view, the backjoins of all of them in one array shared across the
/// entry, and no rows, which a hit re-reads from the view's descriptor.
/// Those are all a substitute's cost reads (DESIGN.md §18.4).
#[derive(Debug, Default)]
pub struct CachedVerdicts {
    candidates: usize,
    passed: Vec<Passed>,
    backjoins: Vec<TableId>,
}

/// One view's verdict in a [`CachedVerdicts`]: where its backjoins end in
/// the shared array (they start where the previous record's end), and its
/// flags.
#[derive(Debug)]
struct Passed {
    view: ViewId,
    /// `backjoins_end << 2 | filters << 1 | regroups`.
    backjoins_end: u32,
}

/// `n << 2 | low`: an offset with a record's two flag bits beside it.
fn pack(n: usize, low: u8) -> u32 {
    let n = u32::try_from(n)
        .ok()
        .filter(|&n| n < 1 << 30)
        .expect("a cached verdict's offsets fit in 30 bits");
    n << 2 | u32::from(low & 3)
}

/// [`pack`]'s `(n, low)`.
fn unpack(word: u32) -> (usize, u8) {
    ((word >> 2) as usize, (word & 3) as u8)
}

impl CachedVerdicts {
    /// Record the verdict of the next view that passed (`rows` is not
    /// kept).
    pub(crate) fn push(&mut self, verdict: &Verdict) {
        self.backjoins.extend_from_slice(&verdict.backjoins);
        let flags = u8::from(verdict.filters) << 1 | u8::from(verdict.regroups);
        self.passed.push(Passed {
            view: verdict.view,
            backjoins_end: pack(self.backjoins.len(), flags),
        });
    }

    /// The finished entry of a computation over `candidates` candidates,
    /// its arrays trimmed to their length.
    pub(crate) fn finish(mut self, candidates: usize) -> Arc<CachedVerdicts> {
        self.candidates = candidates;
        self.passed.shrink_to_fit();
        self.backjoins.shrink_to_fit();
        Arc::new(self)
    }

    /// The filter's candidate count when the entry was computed.
    pub(crate) fn candidates(&self) -> usize {
        self.candidates
    }

    /// The views that passed the full tests, ascending.
    pub(crate) fn views(&self) -> impl Iterator<Item = ViewId> + '_ {
        self.passed.iter().map(|p| p.view)
    }

    /// The verdicts of the views the freshness `policy` admits under
    /// `snap`, in view order, each with its rows read from the view's
    /// descriptor in `snap`.
    pub(crate) fn admitted<'a>(
        &'a self,
        snap: &'a CatalogSnapshot,
        policy: FreshnessPolicy,
    ) -> impl Iterator<Item = Verdict> + 'a {
        let mut backjoins_at = 0;
        self.passed.iter().filter_map(move |p| {
            let (backjoins_end, flags) = unpack(p.backjoins_end);
            let backjoins = &self.backjoins[backjoins_at..backjoins_end];
            backjoins_at = backjoins_end;
            policy.admits(snap.view_lag(p.view)).then(|| Verdict {
                view: p.view,
                rows: snap.descriptors.prepared(p.view).rows,
                backjoins: backjoins.to_vec(),
                filters: flags & 2 != 0,
                regroups: flags & 1 != 0,
            })
        })
    }
}

impl<G: Guard, V: Clone> EpochCache<G, V> {
    /// A cache of at most `capacity` entries, striped over one mutex per
    /// 128 entries (at most 8, so the default 1,024 is 8 stripes of 128
    /// and a small cache is one stripe). Stripes are sized by floor: the
    /// sum never exceeds `capacity`. `capacity == 0` disables caching
    /// entirely.
    pub fn new(capacity: usize) -> Self {
        if capacity == 0 {
            return EpochCache {
                shards: Vec::new(),
                per_shard: 0,
            };
        }
        let n = (capacity / 128).clamp(1, 8);
        EpochCache {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(Shard {
                        slots: Vec::new(),
                        index: HashMap::new(),
                        floor: 0,
                    })
                })
                .collect(),
            per_shard: capacity / n,
        }
    }

    /// Is caching enabled (capacity > 0)?
    pub fn is_enabled(&self) -> bool {
        !self.shards.is_empty()
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard<G, V>> {
        &self.shards[(hash as usize) % self.shards.len()]
    }

    /// Probe for the entry under `hash` whose guard satisfies `is_guard`,
    /// under the current per-table epoch `stamp`. A present entry whose
    /// stamp mismatches is removed and reported as [`CacheLookup::Stale`];
    /// a hash collision with a different guard is a plain miss (the
    /// insert that follows will replace the colliding entry). A hit
    /// renews the entry's priority and clones the value under the
    /// stripe's lock.
    pub fn lookup(
        &self,
        hash: u64,
        is_guard: impl FnOnce(&G) -> bool,
        stamp: &[u64],
    ) -> CacheLookup<V> {
        if !self.is_enabled() {
            return CacheLookup::Disabled;
        }
        let mut shard = lock_or_recover(self.shard(hash));
        let Some(&slot) = shard.index.get(&hash) else {
            return CacheLookup::Miss;
        };
        let floor = shard.floor;
        let entry = shard.slots[slot].as_mut().expect("indexed slot is filled");
        if !is_guard(&entry.guard) {
            return CacheLookup::Miss;
        }
        if entry.stamp != stamp {
            shard.slots[slot] = None;
            shard.index.remove(&hash);
            return CacheLookup::Stale;
        }
        entry.priority = floor.saturating_add(entry.cost);
        CacheLookup::Hit(entry.value.clone())
    }

    /// Store a value that costs `cost` to recompute. An existing entry
    /// under the same hash is replaced; otherwise a free slot is used, or
    /// the shard evicts its minimum-priority entry (a scan of at most
    /// `per_shard` slots). Returns whether an entry of another guard was
    /// dropped — by capacity or by the replacement of a colliding one —
    /// in which case the floor rises to that entry's priority.
    pub fn insert(&self, hash: u64, guard: G, stamp: Vec<u64>, value: V, cost: u64) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let mut shard = lock_or_recover(self.shard(hash));
        let slot = if let Some(&slot) = shard.index.get(&hash) {
            slot
        } else if shard.slots.len() < self.per_shard {
            shard.slots.push(None);
            shard.slots.len() - 1
        } else {
            // A free slot orders first (`None < Some`), then the lowest
            // priority; ties go to the lowest slot.
            let (slot, _) = shard
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.as_ref().map(|e| e.priority))
                .expect("a full shard has slots");
            slot
        };
        let evicted = match shard.slots[slot].take() {
            Some(old) if old.hash != hash || !old.guard.same(&guard) => {
                shard.index.remove(&old.hash);
                // `max`: a replaced entry need not be the shard's minimum.
                shard.floor = shard.floor.max(old.priority);
                true
            }
            _ => false,
        };
        shard.index.insert(hash, slot);
        let priority = shard.floor.saturating_add(cost);
        shard.slots[slot] = Some(Entry {
            hash,
            guard,
            stamp,
            value,
            cost,
            priority,
        });
        evicted
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_or_recover(s).index.len())
            .sum()
    }

    /// Is the cache empty (or disabled)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (capacity and shard count are unchanged).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = lock_or_recover(s);
            shard.slots.clear();
            shard.index.clear();
            shard.floor = 0;
        }
    }
}

/// The plan cache (DESIGN.md §11.4): an optimizer-config tag and the bound
/// block as the guard, the optimizer's result — a type this crate does not
/// know — as the value.
pub(crate) type PlanCache = EpochCache<(u64, SpjgExpr), Arc<dyn Any + Send + Sync>>;

/// The plan cache holds `1 / PLAN_CACHE_SHARE` of the substitute cache's
/// capacity: 64 plans at the default 1,024, so a capacity of 0 turns both
/// off (DESIGN.md §11.4 has why this share).
pub(crate) const PLAN_CACHE_SHARE: usize = 16;

/// Outcome of [`MatchingEngine::probe_plan`].
#[derive(Debug)]
pub enum PlanProbe<P> {
    /// The plan cached for this (tag, block), valid under the pinned
    /// snapshot's epochs.
    Hit(P),
    /// No valid plan: search, then hand the ticket to
    /// [`MatchingEngine::insert_plan`].
    Miss(PlanTicket),
}

/// What a plan-cache miss hands back for the insert: the key's hash and
/// tag, and the epoch stamp read from the snapshot pinned *before* the
/// search — so the stamp cannot be taken after a registration the search
/// did not see.
#[derive(Debug)]
pub struct PlanTicket {
    /// `(hash, tag, stamp)`; `None` with the plan cache off.
    key: Option<(u64, u64, Vec<u64>)>,
}

impl MatchingEngine {
    /// Probe the plan cache for the plan of `query` under the optimizer
    /// configuration `tag` identifies. `pin` is the snapshot the caller
    /// pinned before searching: a hit is valid under its epochs, and a
    /// miss carries its stamp in the [`PlanTicket`] for the insert. With
    /// the cache off (`substitute_cache_capacity / 16 == 0`) nothing is
    /// hashed and nothing counted. A cached value of another type than
    /// `P` is a miss.
    ///
    /// Sound because a query's plan depends on the catalog only through
    /// `find_substitutes` on subsets of its tables. Every catalog change
    /// that can change one of those bumps the epoch of a table in the
    /// subset, so of a table in the query's stamp. Freshness reaches a
    /// plan only through which views the gate admits; under `StaleOk` it
    /// admits every view, and under any other policy the stamp also
    /// carries the freshness counter every write round and restamp bumps
    /// (DESIGN.md §11.4).
    pub fn probe_plan<P: Clone + 'static>(
        &self,
        pin: &ViewsGuard,
        tag: u64,
        query: &SpjgExpr,
    ) -> PlanProbe<P> {
        if !self.plans.is_enabled() {
            return PlanProbe::Miss(PlanTicket { key: None });
        }
        let mut hasher = DefaultHasher::new();
        (tag, fingerprint(query).hash).hash(&mut hasher);
        let hash = hasher.finish();
        let stamp = self.plan_stamp(&pin.snap, query);
        // Not `block == query`: that serves `a * 2.0` the plan for `a * 2`.
        let is_key = |(t, block): &(u64, SpjgExpr)| *t == tag && block.identical(query);
        match self.plans.lookup(hash, is_key, &stamp) {
            CacheLookup::Hit(plan) => {
                if let Some(plan) = plan.downcast_ref::<P>() {
                    self.stats.record_plan_cache_hit();
                    return PlanProbe::Hit(plan.clone());
                }
            }
            CacheLookup::Stale => self.stats.record_plan_cache_invalidation(),
            CacheLookup::Miss | CacheLookup::Disabled => {}
        }
        self.stats.record_plan_cache_miss();
        PlanProbe::Miss(PlanTicket {
            key: Some((hash, tag, stamp)),
        })
    }

    /// Store the plan a [`MatchingEngine::probe_plan`] miss went on to
    /// search for, under the ticket's stamp.
    pub fn insert_plan<P: Send + Sync + 'static>(
        &self,
        ticket: PlanTicket,
        query: &SpjgExpr,
        plan: P,
    ) {
        let Some((hash, tag, stamp)) = ticket.key else {
            return;
        };
        // The stamp MUST be the one read before the search. Re-reading it
        // here (the PLAN_STAMP_AT_INSERT mutation) stamps a plan searched
        // before a registration with the epochs after it.
        #[cfg(mv_model)]
        let stamp = if crate::mutation::active(crate::mutation::PLAN_STAMP_AT_INSERT) {
            self.plan_stamp(&self.snapshot(), query)
        } else {
            stamp
        };
        self.plans
            .insert(hash, (tag, query.clone()), stamp, Arc::new(plan), 1);
    }

    /// The stamp a plan for `query` searched under `snap` carries: the
    /// query's catalog stamp, plus the freshness counter when the policy
    /// lets freshness change a plan.
    fn plan_stamp(&self, snap: &CatalogSnapshot, query: &SpjgExpr) -> Vec<u64> {
        let mut stamp = snap.table_stamp(query);
        if self.config.freshness != FreshnessPolicy::StaleOk {
            stamp.push(snap.freshness_epoch);
        }
        stamp
    }

    /// Number of live entries in the plan cache.
    pub fn plan_cache_len(&self) -> usize {
        self.plans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe's guard test for `key`.
    fn is(key: u64) -> impl FnOnce(&u64) -> bool {
        move |g| *g == key
    }

    #[test]
    fn lookup_insert_stamp_and_eviction() {
        let cache = EpochCache::<u64, (usize, Vec<ViewId>)>::new(4);
        assert!(cache.is_enabled());
        assert!(cache.is_empty());
        assert!(matches!(cache.lookup(5, is(5), &[0]), CacheLookup::Miss));
        cache.insert(5, 5, vec![0], (3, vec![ViewId(1)]), 4);
        match cache.lookup(5, is(5), &[0]) {
            CacheLookup::Hit((candidates, results)) => {
                assert_eq!(results.len(), 1);
                assert_eq!(candidates, 3);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        // A bumped table epoch: the entry is discarded on its next probe.
        assert!(matches!(cache.lookup(5, is(5), &[1]), CacheLookup::Stale));
        assert!(matches!(cache.lookup(5, is(5), &[1]), CacheLookup::Miss));
        // A hash collision with another guard is a miss, not a hit.
        cache.insert(5, 6, vec![0], (0, Vec::new()), 1);
        assert!(matches!(cache.lookup(5, is(5), &[0]), CacheLookup::Miss));
        // Capacity is bounded: many inserts never exceed it.
        for i in 0..50 {
            cache.insert(100 + i, i, vec![0], (0, Vec::new()), 1);
        }
        assert!(cache.len() <= 4, "eviction must bound the cache");
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    /// A record is 8 bytes, and what is packed reads back.
    #[test]
    fn cached_verdicts_pack_into_words() {
        assert_eq!(std::mem::size_of::<Passed>(), 8);
        for (n, low) in [(0, 0), (7, 2), ((1 << 30) - 1, 3)] {
            assert_eq!(unpack(pack(n, low)), (n, low));
        }
        let entry = CachedVerdicts::default().finish(9);
        assert_eq!((entry.candidates(), entry.views().count()), (9, 0));
    }

    #[test]
    fn per_table_stamps_compare_positionally() {
        let cache = EpochCache::<u64, ()>::new(4);
        cache.insert(5, 5, vec![2, 7], (), 1);
        // Same epochs for the same tables: hit.
        assert!(matches!(
            cache.lookup(5, is(5), &[2, 7]),
            CacheLookup::Hit(())
        ));
        // One table advanced: stale, even though the other is unchanged.
        assert!(matches!(
            cache.lookup(5, is(5), &[2, 8]),
            CacheLookup::Stale
        ));
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = EpochCache::<u64, ()>::new(0);
        assert!(!cache.is_enabled());
        assert!(!cache.insert(5, 5, vec![0], (), 1));
        assert!(matches!(
            cache.lookup(5, is(5), &[0]),
            CacheLookup::Disabled
        ));
        assert_eq!(cache.len(), 0);
    }

    /// Replacing a colliding entry of another guard is an eviction: it
    /// is reported and raises the floor to the replaced entry's priority,
    /// as a capacity eviction does. Re-inserting the same guard is not.
    #[test]
    fn replacing_another_guard_under_one_hash_is_an_eviction() {
        let cache = EpochCache::<u64, ()>::new(4);
        assert!(!cache.insert(7, 1, vec![0], (), 10));
        assert!(cache.insert(7, 2, vec![0], (), 1), "guard 1 was evicted");
        assert_eq!(cache.len(), 1);
        assert!(
            !cache.insert(7, 2, vec![0], (), 1),
            "same guard: no eviction"
        );
        // The raised floor decides the next capacity eviction: guard 8
        // sits at 10 + 1, above the cost-5 key, which goes.
        let cache = EpochCache::<u64, ()>::new(2);
        cache.insert(1, 1, vec![0], (), 5);
        cache.insert(7, 7, vec![0], (), 10);
        assert!(cache.insert(7, 8, vec![0], (), 1));
        assert!(cache.insert(3, 3, vec![0], (), 1), "a full shard evicts");
        assert!(
            matches!(cache.lookup(7, is(8), &[0]), CacheLookup::Hit(())),
            "the replacement outlives the cost-5 key"
        );
        assert!(matches!(cache.lookup(1, is(1), &[0]), CacheLookup::Miss));
    }

    /// Replay `keys` in order `rounds` times through `cache` — probe, and
    /// on a miss insert at cost 1 — and return the hits and evictions.
    fn replay(cache: &EpochCache<u64, ()>, keys: &[u64], rounds: usize) -> (usize, usize) {
        let (mut hits, mut evictions) = (0, 0);
        for _ in 0..rounds {
            for &k in keys {
                match cache.lookup(k, |g| *g == k, &[0]) {
                    CacheLookup::Hit(()) => hits += 1,
                    _ => evictions += usize::from(cache.insert(k, k, vec![0], (), 1)),
                }
            }
        }
        (hits, evictions)
    }

    #[test]
    fn greedy_dual_keeps_the_costly_key_under_a_cyclic_stream() {
        // One stripe of 4 slots; the cheap stream cycles over 8 keys.
        let cheap: Vec<u64> = (1..=8).collect();
        let cache = EpochCache::<u64, ()>::new(4);
        let (hits, evictions) = replay(&cache, &cheap, 10);
        assert_eq!(hits, 0, "cost-1 keys alone cycle, as under LRU");
        assert_eq!(evictions, 80 - 4);

        let cache = EpochCache::<u64, ()>::new(4);
        assert!(!cache.insert(100, 100, vec![0], (), 100));
        let (hits, _) = replay(&cache, &cheap, 10);
        assert_eq!(hits, 0, "three slots still cycle eight keys");
        assert!(
            matches!(cache.lookup(100, |g| *g == 100, &[0]), CacheLookup::Hit(())),
            "the cost-100 key outlives 77 cheap evictions"
        );
        assert_eq!(cache.len(), 4);
    }
}
