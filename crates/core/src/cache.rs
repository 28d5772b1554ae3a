//! The level-1 substitute cache: canonical query fingerprints mapped to
//! complete `find_substitutes` results.
//!
//! Serving workloads are dominated by repeated query *templates* — the
//! cross-query commonality that multi-query optimization exploits. The
//! matcher's answer for a query depends only on the query shape and on the
//! engine's registered state (views + check constraints), so a repeated
//! shape can skip both the filter-tree walk and the subsumption tests
//! entirely:
//!
//! - [`fingerprint`] renders an [`SpjgExpr`] into a normalized textual
//!   form — tables sorted (occurrences renumbered accordingly), conjuncts
//!   rendered through the canonicalizing [`Template`] machinery and
//!   sorted, output expressions rendered in positional order with their
//!   *names dropped* — so α-equivalent queries (renamed outputs, permuted
//!   predicates, permuted join order) collide on the same entry.
//! - [`SubstituteCache`] is a mutex-striped shard array keyed by the
//!   fingerprint hash, with a second-chance ("clock") eviction hand per
//!   shard. Entries carry a *per-table epoch stamp*: the invalidation
//!   epoch of each base table the fingerprinted query touches, captured
//!   from the catalog snapshot the result was computed under. Registration
//!   (`add_view` / `remove_view`) bumps only the epochs of the view's own
//!   tables, and `add_check_constraint` only its table's — so an entry
//!   whose query touches disjoint tables keeps a matching stamp and
//!   survives the write. (A view can only answer a query whose tables are
//!   a subset of the view's, so bumping the view's tables covers every
//!   query whose result could change.) Stale entries are lazily discarded
//!   on their next lookup — registering a view never takes a
//!   stop-the-world pass over the cache.
//!
//! Cached results are returned byte-identical to what uncached matching
//! produces (output names are re-stamped from the probing query, which is
//! the only query-specific part of a [`Substitute`]); debug builds prove
//! this with a differential assertion on every hit.

use mv_expr::Template;
use mv_parallel::sync::{lock_or_recover, Mutex};
use mv_plan::{AggFunc, OutputList, SpjgExpr, Substitute, ViewId};
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
/// omitted — names are the one query-specific part of a substitute and
/// are re-stamped on every cache hit.
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

/// One cached `find_substitutes` result.
#[derive(Debug)]
struct Entry {
    hash: u64,
    render: String,
    /// Per-table invalidation epochs of the query's (sorted, deduplicated)
    /// base tables, captured at computation time. A mismatch on lookup
    /// means some table this query touches saw a view registration,
    /// removal, or new check constraint since. Two probes with equal
    /// renders reference the same table set in the same order, so the
    /// stamps compare positionally.
    stamp: Vec<u64>,
    /// Candidate count of the original computation, replayed into the
    /// stats on every hit so counter totals stay path-independent.
    candidates: usize,
    results: Vec<(ViewId, Substitute)>,
    /// Second-chance bit for the clock eviction hand.
    referenced: bool,
}

/// One mutex-striped shard: a fixed slot array, a hash → slot index, and
/// the clock hand.
#[derive(Debug, Default)]
struct Shard {
    slots: Vec<Option<Entry>>,
    index: HashMap<u64, usize>,
    hand: usize,
}

/// Outcome of a cache probe.
#[derive(Debug)]
pub enum CacheLookup {
    /// A live entry: the cached results plus the candidate count of the
    /// original computation.
    Hit {
        results: Vec<(ViewId, Substitute)>,
        candidates: usize,
    },
    /// An entry existed but some table its query touches changed since;
    /// it has been discarded (lazy invalidation).
    Stale,
    /// No entry.
    Miss,
    /// The cache is disabled (capacity 0).
    Disabled,
}

/// The sharded substitute cache. All methods take `&self`; each shard is
/// an independent [`Mutex`], so concurrent `find_substitutes` callers only
/// contend when their fingerprints land on the same stripe.
#[derive(Debug)]
pub struct SubstituteCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
}

impl SubstituteCache {
    /// A cache of at most `capacity` entries, striped over one mutex per
    /// 128 entries (at most 8, so the default 1,024 is 8 stripes of 128
    /// and a small cache is one stripe). Stripes are sized by floor: the
    /// sum never exceeds `capacity`. `capacity == 0` disables caching
    /// entirely.
    pub fn new(capacity: usize) -> SubstituteCache {
        if capacity == 0 {
            return SubstituteCache {
                shards: Vec::new(),
                per_shard: 0,
            };
        }
        let n = (capacity / 128).clamp(1, 8);
        SubstituteCache {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard: capacity / n,
        }
    }

    /// Is caching enabled (capacity > 0)?
    pub fn is_enabled(&self) -> bool {
        !self.shards.is_empty()
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[(hash as usize) % self.shards.len()]
    }

    /// Probe for `render` under the current per-table epoch `stamp`
    /// (epochs of the query's sorted table set). A present entry whose
    /// stamp mismatches is removed and reported as [`CacheLookup::Stale`];
    /// a hash collision with a different render is a plain miss (the
    /// insert that follows will replace the colliding entry).
    pub fn lookup(&self, hash: u64, render: &str, stamp: &[u64]) -> CacheLookup {
        if !self.is_enabled() {
            return CacheLookup::Disabled;
        }
        let mut shard = lock_or_recover(self.shard(hash));
        let Some(&slot) = shard.index.get(&hash) else {
            return CacheLookup::Miss;
        };
        let entry = shard.slots[slot].as_ref().expect("indexed slot is filled");
        if entry.render != render {
            return CacheLookup::Miss;
        }
        if entry.stamp != stamp {
            shard.slots[slot] = None;
            shard.index.remove(&hash);
            return CacheLookup::Stale;
        }
        let entry = shard.slots[slot].as_mut().expect("indexed slot is filled");
        entry.referenced = true;
        CacheLookup::Hit {
            results: entry.results.clone(),
            candidates: entry.candidates,
        }
    }

    /// Store a computed result. An existing entry under the same hash is
    /// replaced; otherwise a free slot is used, or the clock hand evicts
    /// the first entry it sweeps past whose second-chance bit is clear.
    pub fn insert(
        &self,
        hash: u64,
        render: String,
        stamp: Vec<u64>,
        candidates: usize,
        results: Vec<(ViewId, Substitute)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let entry = Entry {
            hash,
            render,
            stamp,
            candidates,
            results,
            referenced: false,
        };
        let mut shard = lock_or_recover(self.shard(hash));
        if let Some(&slot) = shard.index.get(&hash) {
            shard.slots[slot] = Some(entry);
            return;
        }
        if shard.slots.len() < self.per_shard {
            let slot = shard.slots.len();
            shard.slots.push(Some(entry));
            shard.index.insert(hash, slot);
            return;
        }
        if let Some(slot) = shard.slots.iter().position(|s| s.is_none()) {
            shard.index.insert(hash, slot);
            shard.slots[slot] = Some(entry);
            return;
        }
        // Clock sweep: clear second-chance bits until a victim is found.
        // Bounded: after one full revolution every bit is clear.
        loop {
            let slot = shard.hand % self.per_shard;
            shard.hand = slot + 1;
            let occupant = shard.slots[slot].as_mut().expect("full shard");
            if occupant.referenced {
                occupant.referenced = false;
                continue;
            }
            let old_hash = occupant.hash;
            shard.index.remove(&old_hash);
            shard.index.insert(hash, slot);
            shard.slots[slot] = Some(entry);
            return;
        }
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
            shard.hand = 0;
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

    fn sub(view: u32) -> Substitute {
        Substitute {
            view: ViewId(view),
            backjoins: Vec::new(),
            predicates: Vec::new(),
            output: OutputList::Spj(Vec::new()),
            freshness: mv_plan::Freshness::Fresh,
        }
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

    #[test]
    fn lookup_insert_stamp_and_eviction() {
        let cache = SubstituteCache::new(4);
        assert!(cache.is_enabled());
        assert!(cache.is_empty());
        let fp = fingerprint(&query("a", 5));
        assert!(matches!(
            cache.lookup(fp.hash, &fp.render, &[0]),
            CacheLookup::Miss
        ));
        cache.insert(
            fp.hash,
            fp.render.clone(),
            vec![0],
            3,
            vec![(ViewId(1), sub(1))],
        );
        match cache.lookup(fp.hash, &fp.render, &[0]) {
            CacheLookup::Hit {
                results,
                candidates,
            } => {
                assert_eq!(results.len(), 1);
                assert_eq!(candidates, 3);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        // A bumped table epoch: the entry is discarded on its next probe.
        assert!(matches!(
            cache.lookup(fp.hash, &fp.render, &[1]),
            CacheLookup::Stale
        ));
        assert!(matches!(
            cache.lookup(fp.hash, &fp.render, &[1]),
            CacheLookup::Miss
        ));
        // Capacity is bounded: many inserts never exceed it.
        for i in 0..50 {
            let fp = fingerprint(&query("a", i));
            cache.insert(fp.hash, fp.render, vec![0], 0, Vec::new());
        }
        assert!(cache.len() <= 4, "clock eviction must bound the cache");
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn per_table_stamps_compare_positionally() {
        let cache = SubstituteCache::new(4);
        let fp = fingerprint(&query("a", 5));
        cache.insert(fp.hash, fp.render.clone(), vec![2, 7], 0, Vec::new());
        // Same epochs for the same tables: hit.
        assert!(matches!(
            cache.lookup(fp.hash, &fp.render, &[2, 7]),
            CacheLookup::Hit { .. }
        ));
        // One table advanced: stale, even though the other is unchanged.
        assert!(matches!(
            cache.lookup(fp.hash, &fp.render, &[2, 8]),
            CacheLookup::Stale
        ));
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = SubstituteCache::new(0);
        assert!(!cache.is_enabled());
        let fp = fingerprint(&query("a", 5));
        cache.insert(fp.hash, fp.render.clone(), vec![0], 0, Vec::new());
        assert!(matches!(
            cache.lookup(fp.hash, &fp.render, &[0]),
            CacheLookup::Disabled
        ));
        assert_eq!(cache.len(), 0);
    }
}
