//! The filter tree of section 4.2: a stack of lattice indexes that
//! "recursively subdivides the set of views into smaller and smaller
//! non-overlapping partitions. At each level, a different partitioning
//! condition is applied."
//!
//! Keys at every level are sets of opaque `u64` tokens (table ids,
//! base-qualified column ids, or hashed template texts — the `keys`
//! submodule derives them for a view and a query alike). Each level
//! searches its lattice index with one of three monotone conditions:
//!
//! * [`LevelSearch::Subset`] — view key ⊆ query key (hub condition,
//!   residual-predicate condition, weak range-constraint condition),
//! * [`LevelSearch::Superset`] — view key ⊇ query key (source-table
//!   condition, output/grouping-expression conditions),
//! * [`LevelSearch::Hitting`] — the view key intersects every one of the
//!   query's equivalence classes (output-column and grouping-column
//!   conditions, sections 4.2.3/4.2.4).
//!
//! # Storage layout
//!
//! The tree is path-compressed. A partition that holds one key set per
//! remaining level is a single *chain* node: the keys of all its
//! remaining levels in one block, then its views. A search tests a
//! chain's levels in place, in level order, with the pointwise form of
//! each level's condition ([`LevelSearch::accepts_sorted`]) — the test a
//! lattice search applies to a one-node lattice, without the lattice.
//! Only a partition that holds two or more key sets at its next level is
//! a [`LatticeIndex`] over that level. At 50,000 generated views that is
//! 3,129 lattices and 40,263 chains (39,765 of them with one to seven
//! levels inline, 3.4 on average) where a lattice per partition per level
//! would be 138,949 lattices, 137,295 of them holding one key set.
//! DESIGN.md §12.3 has the measurement.
//!
//! Each lattice node also stores its key's 64-bit signature, and a search
//! condition carries the signatures of its sets ([`TokenSet`]), built once
//! per query: a lattice search rejects most nodes on one AND of two
//! signatures before it reads a key (DESIGN.md §12.5). Chains are tested
//! on their keys alone.

mod keys;

pub(crate) use keys::strict_filter_exempt_levels;
pub use keys::{
    col_token, decode_col_token, table_token, TokenKind, AGG_LEVELS, LEVEL_NAMES, LEVEL_TOKENS,
    SPJ_LEVELS,
};

use crate::lattice::{hits_all, is_subset, normalized, LatticeIndex, TokenSet};
use mv_plan::ViewId;
use std::sync::Arc;

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
    /// allocating: the pointwise form of the monotone condition a lattice
    /// search evaluates over whole branches, and the one test a chain
    /// node and the audit apply. A lattice search's exact test calls the
    /// same `is_subset` and `hits_all`, after the signature precheck.
    pub fn accepts_sorted(&self, key: &[u64]) -> bool {
        match self {
            LevelSearch::Subset(s) => is_subset(key, s.tokens()),
            LevelSearch::Superset(s) => is_subset(s.tokens(), key),
            LevelSearch::Hitting(classes) => hits_all(classes, key),
        }
    }
}

/// A partition with one key set per remaining level, stored inline: the
/// block holds one end offset per level, then the levels' keys
/// concatenated (level `i` is `keys[ends[i - 1]..ends[i]]`). How many
/// levels remain follows from the node's depth in the tree, so it is
/// passed in, not stored. With no level remaining this is the bottom of
/// the tree: the block is empty and only the views are left.
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

    /// The key sets of the chain's `levels` levels, in level order.
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
    /// Two or more key sets at the next level: a lattice index over them.
    Internal(LatticeIndex<Arc<FilterNode>>),
}

/// A filter tree with a fixed number of levels.
///
/// `Clone` is a *structural-sharing* copy: the root level's lattice node
/// table is copied, but every child partition is shared behind an `Arc`
/// until a write touches it. Cloning a 100k-view tree costs the root
/// fan-out, not the whole index.
#[derive(Debug, Clone)]
pub struct FilterTree {
    depth: usize,
    root: FilterNode,
    len: usize,
}

impl FilterTree {
    /// An empty tree with `depth` levels (one key per level).
    pub fn new(depth: usize) -> Self {
        let root = if depth == 0 {
            FilterNode::Chain(Chain::new(0, std::iter::empty(), Vec::new()))
        } else {
            FilterNode::Internal(LatticeIndex::new())
        };
        FilterTree {
            depth,
            root,
            len: 0,
        }
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of views stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores no views.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sets `keys` denote, one per level of the tree.
    fn level_keys(&self, keys: &[Vec<u64>]) -> Vec<Vec<u64>> {
        assert_eq!(keys.len(), self.depth, "level key count mismatch");
        keys.iter()
            .map(|key| normalized(key.iter().copied()))
            .collect()
    }

    /// Insert a view with its per-level keys (`keys.len()` must equal the
    /// tree depth).
    pub fn insert(&mut self, keys: &[Vec<u64>], view: ViewId) {
        let keys = self.level_keys(keys);
        self.len += 1;
        Self::insert_node(&mut self.root, &keys, view);
    }

    fn insert_node(node: &mut FilterNode, keys: &[Vec<u64>], view: ViewId) {
        if let FilterNode::Chain(chain) = node {
            if chain.holds(keys) {
                chain.views.push(view);
                return;
            }
            // A second key set at some level below: split one level off,
            // the path-compressed trie's split. The chain becomes a
            // lattice over its first level whose one child is the rest of
            // the chain, and the insert goes on below — splitting again
            // until it reaches the level where the keys differ, so the
            // shape depends on the stored set, not on insertion order.
            let views = std::mem::take(&mut chain.views);
            let mut levels = chain.keys(keys.len());
            let first = levels
                .next()
                .expect("a chain with no level holds every key");
            let rest = Chain::new(keys.len() - 1, levels, views);
            let mut index = LatticeIndex::new();
            index.get_or_insert_with(first, || Arc::new(FilterNode::Chain(rest)));
            *node = FilterNode::Internal(index);
        }
        let FilterNode::Internal(index) = node else {
            unreachable!("a chain was split above")
        };
        let (key, rest) = keys.split_first().expect("a lattice indexes a level");
        let child = index.get_or_insert_with(key, || {
            let keys = rest.iter().map(Vec::as_slice);
            Arc::new(FilterNode::Chain(Chain::new(rest.len(), keys, Vec::new())))
        });
        // Copy-on-write: a child shared with a published snapshot is
        // cloned here (one chain block, or one lattice level), an
        // unshared one is mutated in place.
        Self::insert_node(Arc::make_mut(child), rest, view);
    }

    /// Remove a view previously inserted under exactly these keys.
    /// Returns whether it was found. The partition structure remains (a
    /// re-insert under the same keys is cheap).
    pub fn remove(&mut self, keys: &[Vec<u64>], view: ViewId) -> bool {
        let keys = self.level_keys(keys);
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
        let keys = self.level_keys(keys);
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
    /// — the form the tree stores. `mv-audit` walks this to check each
    /// stored entry against a fresh re-derivation of the view's keys.
    pub fn entries(&self) -> Vec<(ViewId, Vec<Vec<u64>>)> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        Self::collect_entries(&self.root, self.depth, &mut prefix, &mut out);
        out
    }

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
    /// `searches` are borrowed as they are — the caller builds each
    /// level's sets and their signatures once per query — and the descent
    /// allocates nothing: lattice searches run through the visitor API,
    /// chains are tested in place.
    pub fn search_into(&self, searches: &[LevelSearch], out: &mut Vec<ViewId>) {
        assert_eq!(searches.len(), self.depth, "level search count mismatch");
        Self::search_node(&self.root, searches, out);
    }

    fn search_node(node: &FilterNode, searches: &[LevelSearch], out: &mut Vec<ViewId>) {
        match node {
            FilterNode::Chain(chain) => {
                // `all` stops at the first level whose condition fails.
                let mut levels = chain.keys(searches.len()).zip(searches);
                if levels.all(|(key, search)| search.accepts_sorted(key)) {
                    out.extend_from_slice(&chain.views);
                }
            }
            FilterNode::Internal(index) => {
                let (search, rest) = searches.split_first().expect("a lattice indexes a level");
                let descend = |child: &Arc<FilterNode>| Self::search_node(child, rest, out);
                match search {
                    LevelSearch::Subset(s) => index.for_each_subset_value(s, descend),
                    LevelSearch::Superset(s) => index.for_each_superset_value(s, descend),
                    LevelSearch::Hitting(classes) => index.for_each_hitting_value(classes, descend),
                }
            }
        }
    }

    /// How many lattice indexes the tree holds.
    #[cfg(test)]
    fn lattice_count(&self) -> usize {
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

    fn v(i: u32) -> ViewId {
        ViewId(i)
    }

    #[test]
    fn two_level_tree_composes_conditions() {
        // Level 0: source tables (superset condition).
        // Level 1: residual templates (subset condition).
        let mut tree = FilterTree::new(2);
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

    #[test]
    fn hitting_condition_level() {
        // One level keyed by extended output columns; the query needs one
        // column from each class.
        let mut tree = FilterTree::new(1);
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
        let mut tree = FilterTree::new(0);
        tree.insert(&[], v(7));
        tree.insert(&[], v(8));
        assert_eq!(tree.search(&[]), vec![v(7), v(8)]);
    }

    #[test]
    #[should_panic(expected = "level key count mismatch")]
    fn wrong_key_arity_panics() {
        let mut tree = FilterTree::new(2);
        tree.insert(&[vec![1]], v(0));
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
        let mut tree = FilterTree::new(2);
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

    #[test]
    fn a_partition_with_one_key_set_per_level_is_one_chain() {
        // Pairwise-distinct level-1 keys: the root lattice and nothing
        // but chains below it, however deep the tree.
        let mut tree = FilterTree::new(6);
        for i in 0..40u64 {
            let keys: Vec<Vec<u64>> = (0..6).map(|level| vec![i, 100 + level]).collect();
            tree.insert(&keys, v(i as u32));
        }
        assert_eq!(tree.lattice_count(), 1);
        // Equal keys join the chain; a second key set at level 5 splits
        // one level at a time down to where the keys differ.
        let mut keys: Vec<Vec<u64>> = (0..6).map(|level| vec![7, 100 + level]).collect();
        tree.insert(&keys, v(40));
        assert_eq!(tree.lattice_count(), 1);
        keys[4] = vec![7, 999];
        tree.insert(&keys, v(41));
        assert_eq!(tree.lattice_count(), 1 + 4);
        assert_eq!(tree.len(), 42);
        let everything: Vec<LevelSearch> = (0..6)
            .map(|_| LevelSearch::Superset(TokenSet::new([])))
            .collect();
        assert_eq!(tree.search(&everything).len(), 42);
        let mut searches = everything.clone();
        searches[0] = LevelSearch::Superset(TokenSet::new([7]));
        searches[4] = LevelSearch::Subset(TokenSet::new([7, 104]));
        assert_eq!(tree.search(&searches), vec![v(7), v(40)]);
        assert!(tree.contains(&keys, v(41)) && !tree.contains(&keys, v(40)));
        assert!(tree.remove(&keys, v(41)) && !tree.remove(&keys, v(41)));
    }

    #[test]
    fn partitions_do_not_leak() {
        let mut tree = FilterTree::new(2);
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
