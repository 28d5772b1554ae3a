//! The filter tree of section 4.2: a stack of set indexes that
//! "recursively subdivides the set of views into smaller and smaller
//! non-overlapping partitions. At each level, a different partitioning
//! condition is applied."
//!
//! Keys at every level are sets of opaque `u64` tokens (table ids,
//! base-qualified column ids, or hashed template texts — the `keys`
//! submodule derives them for a view and a query alike). Each level
//! searches its partitions with one of three monotone conditions, its
//! [`Condition`]:
//!
//! * [`LevelSearch::Subset`] — view key ⊆ query key (hub condition,
//!   residual-predicate condition, weak range-constraint condition),
//! * [`LevelSearch::Superset`] — view key ⊇ query key (source-table
//!   condition, output/grouping-expression conditions),
//! * [`LevelSearch::Hitting`] — the view key intersects every one of the
//!   query's equivalence classes (output-column and grouping-column
//!   conditions, sections 4.2.3/4.2.4).
//!
//! Keys and searches are numbered as the paper lists the levels
//! ([`LEVEL_NAMES`]); the tree nests them in an order of its own, handed
//! to [`FilterTree::new`] ([`SPJ_NESTING`], [`AGG_NESTING`]). The
//! conditions compose in any order, so the order changes which levels a
//! search reaches, never its answer.
//!
//! # Storage layout
//!
//! The tree is path-compressed. A partition that holds one key set per
//! remaining level is a single *chain* node: the keys of all its
//! remaining levels in one block, then its views. A search tests a
//! chain's levels in place, in nesting order, with the pointwise form of
//! each level's condition ([`LevelSearch::accepts_sorted`]) — the test an
//! index search applies to a one-node index, without the index. Only a
//! partition that holds two or more key sets at its next level is an
//! index over that level: a [`LatticeIndex`] at a Subset or Superset
//! level, a [`PostingIndex`] at a Hitting level, which answers its
//! condition from per-token lists of the nodes holding each token instead
//! of a walk down from the lattice's tops (DESIGN.md §12.6). At 50,000
//! generated views, in the paper's order, that was 3,129 indexes and
//! 40,263 chains (39,765 of them with one to seven levels inline, 3.4 on
//! average) where an index per partition per level would be 138,949,
//! 137,295 of them holding one key set. DESIGN.md §12.3 has the
//! measurement.
//!
//! Each index node also stores its key's 64-bit signature, and a search
//! condition carries the signatures of its sets ([`TokenSet`]), built once
//! per query: an index search rejects most nodes on one AND of two
//! signatures before it reads a key (DESIGN.md §12.5). Chains are tested
//! on their keys alone.

mod keys;

pub(crate) use keys::strict_filter_exempt_levels;
pub use keys::{
    col_token, decode_col_token, table_token, TokenKind, AGG_LEVELS, AGG_NESTING, LEVEL_CONDITIONS,
    LEVEL_NAMES, LEVEL_TOKENS, SPJ_LEVELS, SPJ_NESTING,
};

use crate::lattice::{hits_all, is_subset, normalized, LatticeIndex, PostingIndex, TokenSet};
use mv_plan::ViewId;
use std::sync::Arc;

/// The kind of condition a level's search applies, and so which index
/// holds the level's partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// View key ⊆ query set; a [`LatticeIndex`] level.
    Subset,
    /// View key ⊇ query set; a [`LatticeIndex`] level.
    Superset,
    /// View key meets every query class; a [`PostingIndex`] level.
    Hitting,
}

/// The search condition applied at one level. Its sets are
/// [`TokenSet`]s: sorted, deduplicated and signed when built, so a search
/// borrows them as they are.
#[derive(Debug, Clone)]
pub enum LevelSearch {
    /// Qualify nodes whose key is a subset of the given set.
    Subset(TokenSet),
    /// Qualify nodes whose key is a superset of the given set.
    Superset(TokenSet),
    /// Qualify nodes whose key intersects every one of the given classes.
    /// An empty class list qualifies everything.
    Hitting(Vec<TokenSet>),
}

impl LevelSearch {
    /// Would this search condition accept a partition stored under `key`?
    /// `key` need not be normalized. `mv-audit` uses this to attribute a
    /// wrongly pruned view to the first level whose stored key fails the
    /// query's condition.
    pub fn accepts(&self, key: &[u64]) -> bool {
        self.accepts_sorted(&normalized(key.iter().copied()))
    }

    /// [`LevelSearch::accepts`] for a sorted, deduplicated `key`, without
    /// allocating: the pointwise form of the monotone condition an index
    /// search evaluates over many keys at once, and the one test a chain
    /// node and the audit apply. An index search's exact test calls the
    /// same `is_subset` and `hits_all`, after the signature precheck.
    pub fn accepts_sorted(&self, key: &[u64]) -> bool {
        match self {
            LevelSearch::Subset(s) => is_subset(key, s.tokens()),
            LevelSearch::Superset(s) => is_subset(s.tokens(), key),
            LevelSearch::Hitting(classes) => hits_all(classes, key),
        }
    }

    /// The kind of condition this search applies.
    pub fn condition(&self) -> Condition {
        match self {
            LevelSearch::Subset(_) => Condition::Subset,
            LevelSearch::Superset(_) => Condition::Superset,
            LevelSearch::Hitting(_) => Condition::Hitting,
        }
    }
}

/// One level of a tree, as nested: the number of the key it reads (its
/// place in the caller's key and search lists) and its condition.
#[derive(Debug, Clone, Copy)]
struct Level {
    key: usize,
    condition: Condition,
}

/// A partition with one key set per remaining level, stored inline: the
/// block holds one end offset per level, then the levels' keys
/// concatenated in nesting order (level `i` is `keys[ends[i - 1]..ends[i]]`).
/// How many levels remain follows from the node's depth in the tree, so
/// it is passed in, not stored. With no level remaining this is the
/// bottom of the tree: the block is empty and only the views are left.
#[derive(Debug, Clone)]
struct Chain {
    block: Box<[u64]>,
    views: Vec<ViewId>,
}

impl Chain {
    fn new<'a>(levels: usize, keys: impl Iterator<Item = &'a [u64]>, views: Vec<ViewId>) -> Self {
        let mut block = vec![0; levels];
        for (level, key) in keys.enumerate() {
            block.extend_from_slice(key);
            block[level] = (block.len() - levels) as u64;
        }
        Chain {
            block: block.into_boxed_slice(),
            views,
        }
    }

    /// The key sets of the chain's `levels` levels, in nesting order.
    fn keys(&self, levels: usize) -> impl Iterator<Item = &[u64]> {
        let (ends, keys) = self.block.split_at(levels);
        let mut start = 0;
        ends.iter().map(move |&end| {
            let key = &keys[start..end as usize];
            start = end as usize;
            key
        })
    }

    /// Does the chain store exactly these (normalized) keys?
    fn holds(&self, keys: &[Vec<u64>]) -> bool {
        self.keys(keys.len()).eq(keys.iter().map(Vec::as_slice))
    }
}

/// The index over one level of a partition that holds two or more key
/// sets there, by the level's condition.
#[derive(Debug, Clone)]
enum Index {
    Lattice(LatticeIndex<Arc<FilterNode>>),
    Postings(PostingIndex<Arc<FilterNode>>),
}

impl Index {
    fn new(condition: Condition) -> Self {
        match condition {
            Condition::Subset | Condition::Superset => Index::Lattice(LatticeIndex::new()),
            Condition::Hitting => Index::Postings(PostingIndex::new()),
        }
    }

    fn peek(&self, key: &[u64]) -> Option<&Arc<FilterNode>> {
        match self {
            Index::Lattice(index) => index.peek(key),
            Index::Postings(index) => index.peek(key),
        }
    }

    fn peek_mut(&mut self, key: &[u64]) -> Option<&mut Arc<FilterNode>> {
        match self {
            Index::Lattice(index) => index.peek_mut(key),
            Index::Postings(index) => index.peek_mut(key),
        }
    }

    fn get_or_insert_with(
        &mut self,
        key: &[u64],
        make: impl FnOnce() -> Arc<FilterNode>,
    ) -> &mut Arc<FilterNode> {
        match self {
            Index::Lattice(index) => index.get_or_insert_with(key, make),
            Index::Postings(index) => index.get_or_insert_with(key, make),
        }
    }

    /// Every `(key, child)` pair, in unspecified order.
    fn iter(&self) -> Box<dyn Iterator<Item = (&[u64], &Arc<FilterNode>)> + '_> {
        match self {
            Index::Lattice(index) => Box::new(index.iter()),
            Index::Postings(index) => Box::new(index.iter()),
        }
    }
}

/// One partition node of the filter tree. Children are held behind `Arc`
/// so a cloned tree shares every untouched subtree with the original:
/// the online catalog clones the published tree per registration and
/// mutates only the root-to-leaf path of the affected partition
/// (`Arc::make_mut` copies a shared node on first write), leaving the
/// published snapshot untouched.
#[derive(Debug, Clone)]
enum FilterNode {
    /// One key set per remaining level, down to the views.
    Chain(Chain),
    /// Two or more key sets at the next level: an index over them.
    Internal(Index),
}

/// A filter tree with a fixed number of levels.
///
/// `Clone` is a *structural-sharing* copy: the root level's index is
/// copied, but every child partition is shared behind an `Arc` until a
/// write touches it. Cloning a 100k-view tree costs the root fan-out, not
/// the whole index.
#[derive(Debug, Clone)]
pub struct FilterTree {
    /// The levels, root first.
    levels: Box<[Level]>,
    root: FilterNode,
    len: usize,
}

impl FilterTree {
    /// An empty tree over `conditions.len()` levels: key and search `i`
    /// of every call are level `i`'s, searched with `conditions[i]`, and
    /// `nesting` lists the level numbers root first. Panics if `nesting`
    /// is not an order of `0..conditions.len()`.
    pub fn new(nesting: &[usize], conditions: &[Condition]) -> Self {
        let mut sorted = nesting.to_vec();
        sorted.sort_unstable();
        assert!(
            sorted.iter().copied().eq(0..conditions.len()),
            "nesting {nesting:?} is not an order of {} levels",
            conditions.len()
        );
        let levels: Box<[Level]> = nesting
            .iter()
            .map(|&key| Level {
                key,
                condition: conditions[key],
            })
            .collect();
        let root = match levels.first() {
            Some(level) => FilterNode::Internal(Index::new(level.condition)),
            None => FilterNode::Chain(Chain::new(0, std::iter::empty(), Vec::new())),
        };
        FilterTree {
            levels,
            root,
            len: 0,
        }
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Number of views stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores no views.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sets `keys` denote, in nesting order.
    fn nested_keys(&self, keys: &[Vec<u64>]) -> Vec<Vec<u64>> {
        assert_eq!(keys.len(), self.depth(), "level key count mismatch");
        self.levels
            .iter()
            .map(|level| normalized(keys[level.key].iter().copied()))
            .collect()
    }

    /// Insert a view with its per-level keys (`keys.len()` must equal the
    /// tree depth).
    pub fn insert(&mut self, keys: &[Vec<u64>], view: ViewId) {
        let keys = self.nested_keys(keys);
        self.len += 1;
        Self::insert_node(&mut self.root, &self.levels, &keys, view);
    }

    /// Insert below `node`, whose levels are `levels`, under `keys`, one
    /// per level in nesting order.
    fn insert_node(node: &mut FilterNode, levels: &[Level], keys: &[Vec<u64>], view: ViewId) {
        if let FilterNode::Chain(chain) = node {
            if chain.holds(keys) {
                chain.views.push(view);
                return;
            }
            // A second key set at some level below: split one level off,
            // the path-compressed trie's split. The chain becomes an index
            // over its first level whose one child is the rest of the
            // chain, and the insert goes on below — splitting again until
            // it reaches the level where the keys differ, so the shape
            // depends on the stored set, not on insertion order.
            let views = std::mem::take(&mut chain.views);
            let mut chained = chain.keys(keys.len());
            let first = chained
                .next()
                .expect("a chain with no level holds every key");
            let rest = Chain::new(keys.len() - 1, chained, views);
            let mut index = Index::new(levels[0].condition);
            index.get_or_insert_with(first, || Arc::new(FilterNode::Chain(rest)));
            *node = FilterNode::Internal(index);
        }
        let FilterNode::Internal(index) = node else {
            unreachable!("a chain was split above")
        };
        let (key, rest) = keys.split_first().expect("an index indexes a level");
        let child = index.get_or_insert_with(key, || {
            let keys = rest.iter().map(Vec::as_slice);
            Arc::new(FilterNode::Chain(Chain::new(rest.len(), keys, Vec::new())))
        });
        // Copy-on-write: a child shared with a published snapshot is
        // cloned here (one chain block, or one index level), an unshared
        // one is mutated in place.
        Self::insert_node(Arc::make_mut(child), &levels[1..], rest, view);
    }

    /// Remove a view previously inserted under exactly these keys.
    /// Returns whether it was found. The partition structure remains (a
    /// re-insert under the same keys is cheap).
    pub fn remove(&mut self, keys: &[Vec<u64>], view: ViewId) -> bool {
        let keys = self.nested_keys(keys);
        let removed = Self::remove_node(&mut self.root, &keys, view);
        if removed {
            self.len -= 1;
        }
        removed
    }

    fn remove_node(node: &mut FilterNode, keys: &[Vec<u64>], view: ViewId) -> bool {
        match node {
            FilterNode::Chain(chain) => {
                let at = chain.views.iter().position(|&v| v == view);
                match at.filter(|_| chain.holds(keys)) {
                    Some(i) => {
                        chain.views.remove(i);
                        true
                    }
                    None => false,
                }
            }
            FilterNode::Internal(index) => match index.peek_mut(&keys[0]) {
                Some(child) => Self::remove_node(Arc::make_mut(child), &keys[1..], view),
                None => false,
            },
        }
    }

    /// Is `view` stored under exactly these per-level keys? Keys need not
    /// be normalized. Panics if `keys.len()` differs from the tree depth,
    /// like [`FilterTree::insert`].
    pub fn contains(&self, keys: &[Vec<u64>], view: ViewId) -> bool {
        let keys = self.nested_keys(keys);
        let (mut node, mut keys) = (&self.root, &keys[..]);
        loop {
            match node {
                FilterNode::Chain(chain) => {
                    return chain.holds(keys) && chain.views.contains(&view);
                }
                FilterNode::Internal(index) => match index.peek(&keys[0]) {
                    Some(child) => (node, keys) = (child, &keys[1..]),
                    None => return false,
                },
            }
        }
    }

    /// Every `(view, per-level keys)` pair stored in the tree, in
    /// unspecified order. Keys come back normalized (sorted, deduplicated)
    /// — the form the tree stores — and numbered as they were inserted,
    /// whatever the nesting. `mv-audit` walks this to check each stored
    /// entry against a fresh re-derivation of the view's keys.
    pub fn entries(&self) -> Vec<(ViewId, Vec<Vec<u64>>)> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        Self::collect_entries(&self.root, self.depth(), &mut prefix, &mut out);
        for (_, nested) in &mut out {
            let mut keys = vec![Vec::new(); nested.len()];
            for (level, key) in self.levels.iter().zip(nested.drain(..)) {
                keys[level.key] = key;
            }
            *nested = keys;
        }
        out
    }

    /// The entries below `node`, keys in nesting order.
    fn collect_entries(
        node: &FilterNode,
        levels: usize,
        prefix: &mut Vec<Vec<u64>>,
        out: &mut Vec<(ViewId, Vec<Vec<u64>>)>,
    ) {
        match node {
            FilterNode::Chain(chain) => {
                let mut keys = prefix.clone();
                keys.extend(chain.keys(levels).map(<[u64]>::to_vec));
                out.extend(chain.views.iter().map(|&v| (v, keys.clone())));
            }
            FilterNode::Internal(index) => {
                for (key, child) in index.iter() {
                    prefix.push(key.to_vec());
                    Self::collect_entries(child, levels - 1, prefix, out);
                    prefix.pop();
                }
            }
        }
    }

    /// Collect the views in all partitions satisfying every level's search
    /// condition.
    pub fn search(&self, searches: &[LevelSearch]) -> Vec<ViewId> {
        let mut out = Vec::new();
        self.search_into(searches, &mut out);
        out
    }

    /// [`FilterTree::search`] into a caller-owned buffer: results are
    /// **appended** (the buffer is not cleared), so one buffer can collect
    /// the union over several trees without intermediate allocations.
    ///
    /// `searches` are numbered as the keys are, and each must apply its
    /// level's condition. They are borrowed as they are — the caller
    /// builds each level's sets and their signatures once per query — and
    /// the descent allocates nothing: index searches run through the
    /// visitor API, chains are tested in place.
    pub fn search_into(&self, searches: &[LevelSearch], out: &mut Vec<ViewId>) {
        assert_eq!(searches.len(), self.depth(), "level search count mismatch");
        assert!(
            self.levels
                .iter()
                .all(|level| searches[level.key].condition() == level.condition),
            "each level is searched with its own condition"
        );
        Self::search_node(&self.root, &self.levels, searches, out);
    }

    fn search_node(
        node: &FilterNode,
        levels: &[Level],
        searches: &[LevelSearch],
        out: &mut Vec<ViewId>,
    ) {
        match node {
            FilterNode::Chain(chain) => {
                // `all` stops at the first level whose condition fails.
                let mut chained = chain.keys(levels.len()).zip(levels);
                if chained.all(|(key, level)| searches[level.key].accepts_sorted(key)) {
                    out.extend_from_slice(&chain.views);
                }
            }
            FilterNode::Internal(index) => {
                let (level, rest) = levels.split_first().expect("an index indexes a level");
                let descend =
                    |child: &Arc<FilterNode>| Self::search_node(child, rest, searches, out);
                match (index, &searches[level.key]) {
                    (Index::Lattice(index), LevelSearch::Subset(s)) => {
                        index.for_each_subset_value(s, descend)
                    }
                    (Index::Lattice(index), LevelSearch::Superset(s)) => {
                        index.for_each_superset_value(s, descend)
                    }
                    (Index::Postings(index), LevelSearch::Hitting(classes)) => {
                        index.for_each_hitting_value(classes, descend)
                    }
                    _ => unreachable!("`search_into` checked each level's condition"),
                }
            }
        }
    }

    /// How many indexes the tree holds.
    #[cfg(test)]
    fn index_count(&self) -> usize {
        fn count(node: &FilterNode) -> usize {
            match node {
                FilterNode::Chain(_) => 0,
                FilterNode::Internal(index) => {
                    1 + index.iter().map(|(_, child)| count(child)).sum::<usize>()
                }
            }
        }
        count(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Condition::{Hitting, Subset, Superset};

    fn v(i: u32) -> ViewId {
        ViewId(i)
    }

    /// A tree over `conditions`, nested in key order.
    fn tree(conditions: &[Condition]) -> FilterTree {
        let nesting: Vec<usize> = (0..conditions.len()).collect();
        FilterTree::new(&nesting, conditions)
    }

    #[test]
    fn two_level_tree_composes_conditions() {
        // Level 0: source tables (superset condition).
        // Level 1: residual templates (subset condition).
        for nesting in [[0, 1], [1, 0]] {
            let mut tree = FilterTree::new(&nesting, &[Superset, Subset]);
            tree.insert(&[vec![1, 2], vec![100]], v(0)); // tables {1,2}, residuals {100}
            tree.insert(&[vec![1, 2], vec![]], v(1)); // tables {1,2}, no residuals
            tree.insert(&[vec![1], vec![]], v(2)); // tables {1}
            tree.insert(&[vec![1, 2, 3], vec![100, 200]], v(3));
            assert_eq!(tree.len(), 4);

            // Query over tables {1,2} with residuals {100}:
            // - view must reference at least {1,2} (v0, v1, v3 qualify),
            // - view residuals must be ⊆ {100} (drops v3).
            let mut found = tree.search(&[
                LevelSearch::Superset(TokenSet::new([1, 2])),
                LevelSearch::Subset(TokenSet::new([100])),
            ]);
            found.sort();
            assert_eq!(found, vec![v(0), v(1)]);

            // Query with no residuals: only residual-free views qualify.
            let found = tree.search(&[
                LevelSearch::Superset(TokenSet::new([1, 2])),
                LevelSearch::Subset(TokenSet::new([])),
            ]);
            assert_eq!(found, vec![v(1)]);
        }
    }

    #[test]
    fn hitting_condition_level() {
        // One level keyed by extended output columns; the query needs one
        // column from each class.
        let mut tree = tree(&[Hitting]);
        tree.insert(&[vec![10, 11, 20]], v(0));
        tree.insert(&[vec![10, 30]], v(1));
        tree.insert(&[vec![20, 30]], v(2));
        // Query classes: {10, 11} and {30, 31}.
        let search = LevelSearch::Hitting(vec![TokenSet::new([10, 11]), TokenSet::new([30, 31])]);
        let found = tree.search(std::slice::from_ref(&search));
        assert_eq!(found, vec![v(1)]);
        // Empty class list: everything qualifies.
        let found = tree.search(&[LevelSearch::Hitting(vec![])]);
        assert_eq!(found.len(), 3);
    }

    #[test]
    fn zero_depth_tree_returns_everything() {
        let mut tree = tree(&[]);
        tree.insert(&[], v(7));
        tree.insert(&[], v(8));
        assert_eq!(tree.search(&[]), vec![v(7), v(8)]);
    }

    #[test]
    #[should_panic(expected = "level key count mismatch")]
    fn wrong_key_arity_panics() {
        let mut tree = tree(&[Superset, Subset]);
        tree.insert(&[vec![1]], v(0));
    }

    #[test]
    #[should_panic(expected = "is not an order of 3 levels")]
    fn a_nesting_must_order_every_level() {
        FilterTree::new(&[0, 2, 2], &[Superset, Subset, Hitting]);
    }

    #[test]
    #[should_panic(expected = "each level is searched with its own condition")]
    fn a_level_is_searched_with_its_condition() {
        let mut tree = tree(&[Superset, Hitting]);
        tree.insert(&[vec![1], vec![2]], v(0));
        tree.search(&[
            LevelSearch::Superset(TokenSet::new([1])),
            LevelSearch::Subset(TokenSet::new([2])),
        ]);
    }

    #[test]
    fn accepts_mirrors_search_conditions() {
        let sub = LevelSearch::Subset(TokenSet::new([100, 200]));
        assert!(sub.accepts(&[100]));
        assert!(sub.accepts(&[]));
        assert!(sub.accepts(&[200, 100, 100])); // unnormalized input
        assert!(!sub.accepts(&[100, 300]));
        let sup = LevelSearch::Superset(TokenSet::new([1, 2]));
        assert!(sup.accepts(&[2, 1, 3]));
        assert!(!sup.accepts(&[1]));
        let hit = LevelSearch::Hitting(vec![TokenSet::new([10, 11]), TokenSet::new([30, 31])]);
        assert!(hit.accepts(&[11, 30]));
        assert!(!hit.accepts(&[10, 20]));
        assert!(LevelSearch::Hitting(vec![]).accepts(&[]));
    }

    #[test]
    fn contains_and_entries_report_stored_keys() {
        // In key order and nested the other way round alike: entries come
        // back numbered as they were inserted.
        for nesting in [[0, 1], [1, 0]] {
            let mut tree = FilterTree::new(&nesting, &[Superset, Subset]);
            tree.insert(&[vec![2, 1, 1], vec![100]], v(0)); // stored normalized
            tree.insert(&[vec![3], vec![]], v(1));
            assert!(tree.contains(&[vec![1, 2], vec![100]], v(0)));
            assert!(tree.contains(&[vec![2, 1], vec![100]], v(0))); // unnormalized probe
            assert!(!tree.contains(&[vec![1, 2], vec![100]], v(1)));
            assert!(!tree.contains(&[vec![1], vec![100]], v(0)));
            let mut entries = tree.entries();
            entries.sort();
            assert_eq!(
                entries,
                vec![
                    (v(0), vec![vec![1, 2], vec![100]]),
                    (v(1), vec![vec![3], vec![]]),
                ]
            );
            tree.remove(&[vec![1, 2], vec![100]], v(0));
            assert!(!tree.contains(&[vec![1, 2], vec![100]], v(0)));
            assert_eq!(tree.entries(), vec![(v(1), vec![vec![3], vec![]])]);
        }
    }

    #[test]
    fn a_partition_with_one_key_set_per_level_is_one_chain() {
        // Pairwise-distinct level-1 keys: the root index and nothing but
        // chains below it, however deep the tree.
        let mut tree = tree(&[Superset, Superset, Hitting, Superset, Subset, Superset]);
        for i in 0..40u64 {
            let keys: Vec<Vec<u64>> = (0..6).map(|level| vec![i, 100 + level]).collect();
            tree.insert(&keys, v(i as u32));
        }
        assert_eq!(tree.index_count(), 1);
        // Equal keys join the chain; a second key set at level 5 splits
        // one level at a time down to where the keys differ.
        let mut keys: Vec<Vec<u64>> = (0..6).map(|level| vec![7, 100 + level]).collect();
        tree.insert(&keys, v(40));
        assert_eq!(tree.index_count(), 1);
        keys[4] = vec![7, 999];
        tree.insert(&keys, v(41));
        assert_eq!(tree.index_count(), 1 + 4);
        assert_eq!(tree.len(), 42);
        let mut everything: Vec<LevelSearch> = (0..6)
            .map(|_| LevelSearch::Superset(TokenSet::new([])))
            .collect();
        everything[2] = LevelSearch::Hitting(Vec::new());
        everything[4] = LevelSearch::Subset(TokenSet::new((0..40).chain([104, 999])));
        assert_eq!(tree.search(&everything).len(), 42);
        let mut searches = everything.clone();
        searches[0] = LevelSearch::Superset(TokenSet::new([7]));
        searches[2] = LevelSearch::Hitting(vec![TokenSet::new([7, 1000])]);
        searches[4] = LevelSearch::Subset(TokenSet::new([7, 104]));
        assert_eq!(tree.search(&searches), vec![v(7), v(40)]);
        assert!(tree.contains(&keys, v(41)) && !tree.contains(&keys, v(40)));
        assert!(tree.remove(&keys, v(41)) && !tree.remove(&keys, v(41)));
    }

    #[test]
    fn partitions_do_not_leak() {
        let mut tree = tree(&[Superset, Subset]);
        tree.insert(&[vec![1], vec![5]], v(0));
        tree.insert(&[vec![2], vec![5]], v(1));
        // Search that matches the second level for everyone, first level
        // only for table {1}.
        let found = tree.search(&[
            LevelSearch::Superset(TokenSet::new([1])),
            LevelSearch::Subset(TokenSet::new([5, 6])),
        ]);
        assert_eq!(found, vec![v(0)]);
    }
}
