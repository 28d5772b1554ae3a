//! The engine's epoch-stamped caches: canonical query fingerprints mapped
//! to the matcher's *verdict* — which views passed the full tests — and
//! bound query blocks mapped to the optimizer's whole-query plans — two
//! instances of one store, [`EpochCache`].
//!
//! Serving workloads are dominated by repeated query *templates* — the
//! cross-query commonality that multi-query optimization exploits. Which
//! views can answer a query depends only on the query shape and on the
//! engine's registered state (views + check constraints), so a repeated
//! shape can skip the filter-tree walk and every failing candidate:
//!
//! - [`fingerprint`] renders an [`SpjgExpr`] into a normalized textual
//!   form — tables sorted (occurrences renumbered accordingly), conjuncts
//!   rendered through the canonicalizing [`Template`] machinery and
//!   sorted, output expressions rendered in positional order with their
//!   *names dropped* — so α-equivalent queries (renamed outputs, permuted
//!   predicates, permuted join order) collide on the same entry.
//! - [`EpochCache`] is a mutex-striped shard array keyed by a 64-bit
//!   hash, generic over the collision guard an entry is compared on and
//!   the value it holds, with GreedyDual eviction per shard (Young; Cao
//!   & Irani's GreedyDual-Size is the sized form): each entry carries
//!   what recomputing it costs, and a full shard evicts the entry whose
//!   cost, aged by the shard's rising floor, is lowest. [`SubstituteCache`]
//!   is the instance keyed by fingerprint; the plan instance (DESIGN.md
//!   §11.4) is keyed by the block itself. Entries carry a *per-table
//!   epoch stamp*: the invalidation epoch of each base table the keyed
//!   query touches, captured from the catalog snapshot the value was
//!   computed under. Registration (`add_view` / `remove_view`) bumps only
//!   the epochs of the view's own tables, and `add_check_constraint` only
//!   its table's — so an entry whose query touches disjoint tables keeps
//!   a matching stamp and survives the write. (A view can only answer a
//!   query whose tables are a subset of the view's, so bumping the view's
//!   tables covers every query whose result could change.) Stale entries
//!   are lazily discarded on their next lookup — registering a view never
//!   takes a stop-the-world pass over the cache.
//!
//! A substitute-cache hit re-runs the full tests over the cached views
//! only, for the probing query and against the pinned snapshot, so the
//! substitutes carry the query's own names and literals and the freshness
//! the snapshot's data epochs give each view. Base-table writes therefore
//! leave substitute entries alone (DESIGN.md §11.1); debug builds prove a
//! hit equals a fresh computation with a differential assertion.

use mv_expr::Template;
use mv_parallel::sync::{lock_or_recover, Mutex};
use mv_plan::{AggFunc, OutputList, SpjgExpr, ViewId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A canonical rendering of a query plus its 64-bit hash. The full render
/// is kept and compared on lookup, so a hash collision degrades to a cache
/// miss instead of returning another query's substitutes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Hash of [`Fingerprint::render`].
    pub hash: u64,
    /// The normalized textual form of the query.
    pub render: String,
}

/// Render `query` into its canonical textual form and hash it.
///
/// Normalization: occurrences are renumbered by sorting the source-table
/// list (stable, so self-joins keep their relative order); conjuncts are
/// rendered through [`Template::of_bool`] — which already canonicalizes
/// commutative operators and flips `>` to `<` — with literal values kept
/// in the text, and the rendered conjuncts are sorted; output expressions
/// are rendered in positional order (substitute output lists are
/// positional, so their order is semantic) but with the output *names*
/// omitted — a hit rebuilds the substitutes for the probing query, so
/// they carry its names.
pub fn fingerprint(query: &SpjgExpr) -> Fingerprint {
    // Occurrence renumbering: position of each old occurrence in the
    // table-sorted order.
    let mut order: Vec<usize> = (0..query.tables.len()).collect();
    order.sort_by_key(|&i| (query.tables[i].0, i));
    let mut renum = vec![0usize; order.len()];
    for (new, &old) in order.iter().enumerate() {
        renum[old] = new;
    }

    let mut render = String::with_capacity(128);
    render.push_str("T:");
    for &old in &order {
        render.push_str(&query.tables[old].0.to_string());
        render.push(',');
    }

    // One string per conjunct: canonical template text plus the renumbered
    // column list (literal values are part of the template text).
    let push_template = |out: &mut String, t: &Template| {
        out.push_str(&t.text);
        out.push('/');
        for c in &t.cols {
            out.push_str(&format!("{}.{},", renum[c.occ.0 as usize], c.col.0));
        }
    };
    let mut conjuncts: Vec<String> = query
        .conjuncts
        .iter()
        .map(|conj| {
            let mut s = String::new();
            push_template(&mut s, &Template::of_bool(&conj.to_bool()));
            s
        })
        .collect();
    conjuncts.sort_unstable();
    render.push_str("|C:");
    for c in &conjuncts {
        render.push_str(c);
        render.push(';');
    }

    match &query.output {
        OutputList::Spj(items) => {
            render.push_str("|S:");
            for ne in items {
                push_template(&mut render, &Template::of_scalar(&ne.expr));
                render.push(';');
            }
        }
        OutputList::Aggregate {
            group_by,
            aggregates,
        } => {
            render.push_str("|G:");
            for ne in group_by {
                push_template(&mut render, &Template::of_scalar(&ne.expr));
                render.push(';');
            }
            render.push_str("|A:");
            for na in aggregates {
                match &na.func {
                    AggFunc::CountStar => render.push_str("COUNT(*)"),
                    AggFunc::Sum(e) => {
                        render.push_str("SUM:");
                        push_template(&mut render, &Template::of_scalar(e));
                    }
                    AggFunc::SumZero(e) => {
                        render.push_str("SUMZ:");
                        push_template(&mut render, &Template::of_scalar(e));
                    }
                }
                render.push(';');
            }
        }
    }

    let mut hasher = DefaultHasher::new();
    render.hash(&mut hasher);
    Fingerprint {
        hash: hasher.finish(),
        render,
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
    /// on since. Equal guards reference the same table set in the same
    /// order, so the stamps compare positionally.
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

/// The substitute cache: a fingerprint's render as the guard, and as the
/// value the matcher's structural verdict — the candidate count of the
/// original computation (replayed into the stats on every hit, so counter
/// totals stay path-independent) and the views that passed the full
/// tests, freshness not applied.
pub type SubstituteCache = EpochCache<Box<str>, (usize, Vec<ViewId>)>;

impl<G, V: Clone> EpochCache<G, V> {
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
    /// `per_shard` slots) and raises its floor to that priority. Returns
    /// whether an entry was evicted.
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
            Some(old) if old.hash != hash => {
                shard.index.remove(&old.hash);
                shard.floor = old.priority;
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

#[cfg(test)]
mod tests {
    use super::*;
    use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
    use mv_plan::NamedExpr;

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    fn query(name: &str, lo: i64) -> SpjgExpr {
        SpjgExpr::spj(
            vec![mv_catalog::TableId(3)],
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(lo)),
            vec![NamedExpr::new(S::col(cr(0, 0)), name)],
        )
    }

    #[test]
    fn renamed_outputs_collide_different_literals_do_not() {
        let a = fingerprint(&query("a", 5));
        let b = fingerprint(&query("completely_different_name", 5));
        assert_eq!(a, b, "output names must not affect the fingerprint");
        let c = fingerprint(&query("a", 6));
        assert_ne!(a.render, c.render, "literal values are semantic");
    }

    #[test]
    fn conjunct_order_and_table_order_collide() {
        let t = |a: u32, b: u32| {
            let pred = vec![
                BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(1i64)),
                BoolExpr::cmp(S::col(cr(1, 0)), CmpOp::Lt, S::lit(9i64)),
            ];
            SpjgExpr::spj(
                vec![mv_catalog::TableId(a), mv_catalog::TableId(b)],
                BoolExpr::and(pred),
                vec![NamedExpr::new(S::col(cr(0, 0)), "x")],
            )
        };
        // Same query with tables listed in the other order and the
        // occurrence numbering swapped accordingly.
        let swapped = {
            let pred = vec![
                BoolExpr::cmp(S::col(cr(1, 0)), CmpOp::Ge, S::lit(1i64)),
                BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Lt, S::lit(9i64)),
            ];
            SpjgExpr::spj(
                vec![mv_catalog::TableId(7), mv_catalog::TableId(2)],
                BoolExpr::and(pred),
                vec![NamedExpr::new(S::col(cr(1, 0)), "renamed")],
            )
        };
        assert_eq!(fingerprint(&t(2, 7)), fingerprint(&swapped));
        assert_ne!(fingerprint(&t(2, 7)).render, fingerprint(&t(2, 8)).render);
    }

    /// The guard test the engine applies: the stored render equals the
    /// probe's.
    fn is(render: &str) -> impl FnOnce(&Box<str>) -> bool + '_ {
        move |g| **g == *render
    }

    #[test]
    fn lookup_insert_stamp_and_eviction() {
        let cache = SubstituteCache::new(4);
        assert!(cache.is_enabled());
        assert!(cache.is_empty());
        let fp = fingerprint(&query("a", 5));
        assert!(matches!(
            cache.lookup(fp.hash, is(&fp.render), &[0]),
            CacheLookup::Miss
        ));
        cache.insert(
            fp.hash,
            fp.render.clone().into(),
            vec![0],
            (3, vec![ViewId(1)]),
            4,
        );
        match cache.lookup(fp.hash, is(&fp.render), &[0]) {
            CacheLookup::Hit((candidates, results)) => {
                assert_eq!(results.len(), 1);
                assert_eq!(candidates, 3);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        // A bumped table epoch: the entry is discarded on its next probe.
        assert!(matches!(
            cache.lookup(fp.hash, is(&fp.render), &[1]),
            CacheLookup::Stale
        ));
        assert!(matches!(
            cache.lookup(fp.hash, is(&fp.render), &[1]),
            CacheLookup::Miss
        ));
        // A hash collision with another guard is a miss, not a hit.
        cache.insert(fp.hash, "other".into(), vec![0], (0, Vec::new()), 1);
        assert!(matches!(
            cache.lookup(fp.hash, is(&fp.render), &[0]),
            CacheLookup::Miss
        ));
        // Capacity is bounded: many inserts never exceed it.
        for i in 0..50 {
            let fp = fingerprint(&query("a", i));
            cache.insert(fp.hash, fp.render.into(), vec![0], (0, Vec::new()), 1);
        }
        assert!(cache.len() <= 4, "eviction must bound the cache");
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn per_table_stamps_compare_positionally() {
        let cache = SubstituteCache::new(4);
        let fp = fingerprint(&query("a", 5));
        cache.insert(
            fp.hash,
            fp.render.clone().into(),
            vec![2, 7],
            (0, Vec::new()),
            1,
        );
        // Same epochs for the same tables: hit.
        assert!(matches!(
            cache.lookup(fp.hash, is(&fp.render), &[2, 7]),
            CacheLookup::Hit(_)
        ));
        // One table advanced: stale, even though the other is unchanged.
        assert!(matches!(
            cache.lookup(fp.hash, is(&fp.render), &[2, 8]),
            CacheLookup::Stale
        ));
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = SubstituteCache::new(0);
        assert!(!cache.is_enabled());
        let fp = fingerprint(&query("a", 5));
        let evicted = cache.insert(
            fp.hash,
            fp.render.clone().into(),
            vec![0],
            (0, Vec::new()),
            1,
        );
        assert!(!evicted);
        assert!(matches!(
            cache.lookup(fp.hash, is(&fp.render), &[0]),
            CacheLookup::Disabled
        ));
        assert_eq!(cache.len(), 0);
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
