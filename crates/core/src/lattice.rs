//! The lattice index of section 4.1.
//!
//! "The subset relationship between sets imposes a partial order among
//! sets, which can be represented as a lattice. ... a node in the lattice
//! index contains two collections of pointers, superset pointers and subset
//! pointers. A superset pointer of a node V points to a node that
//! represents a *minimal* superset of the set represented by V. Similarly,
//! a subset pointer of V points to a node that represents a *maximal*
//! subset. Sets with no subsets are called roots and sets without supersets
//! are called tops."
//!
//! Searches prune whole branches: looking for supersets of `S`, a node that
//! fails `S ⊆ key` cannot have any qualifying node below it (every subset
//! of a failing key also fails); looking for subsets, the dual holds going
//! upwards. The same pruning argument extends to any predicate that is
//! monotone with respect to set inclusion — the filter tree exploits this
//! for its "hitting" conditions (section 4.2.3).
//!
//! # Storage layout
//!
//! Node key sets live in one shared arena (`keys`), addressed per node by
//! an `(offset, len)` span; the nodes themselves are flat records. Cloning
//! an index — which the filter tree's copy-on-write does on first write to
//! a shared partition — therefore copies a few contiguous pages instead of
//! one heap allocation per node key. The top and root node lists are
//! maintained incrementally on insert, and searches mark visited nodes in
//! a pooled, epoch-stamped scratch instead of allocating a fresh `visited`
//! bitmap per search: a search over a million-node catalog does no
//! per-call allocation at all.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;

/// One node of the lattice. The key set lives in the index's shared key
/// arena as the span `[key_off, key_off + key_len)`.
#[derive(Debug, Clone)]
struct Node<V> {
    /// Offset of the key set in the shared key arena.
    key_off: u32,
    /// Length of the key set.
    key_len: u32,
    /// Indices of nodes holding minimal proper supersets of the key.
    supersets: Vec<u32>,
    /// Indices of nodes holding maximal proper subsets of the key.
    subsets: Vec<u32>,
    /// The values stored under this key. A node whose payload empties
    /// stays in the graph as structure (re-insertion reuses it).
    payload: Vec<V>,
}

/// A lattice index: a map from key *sets* to values supporting efficient
/// subset and superset queries.
#[derive(Debug, Clone)]
pub struct LatticeIndex<K, V> {
    nodes: Vec<Node<V>>,
    /// Shared key arena; each node's key is a contiguous sorted slice.
    keys: Vec<K>,
    by_key: HashMap<Vec<K>, u32>,
    /// Nodes with no supersets, maintained incrementally — searches start
    /// here instead of scanning every node.
    tops: Vec<u32>,
    /// Nodes with no subsets, maintained incrementally.
    roots: Vec<u32>,
}

impl<K, V> Default for LatticeIndex<K, V> {
    fn default() -> Self {
        LatticeIndex {
            nodes: Vec::new(),
            keys: Vec::new(),
            by_key: HashMap::new(),
            tops: Vec::new(),
            roots: Vec::new(),
        }
    }
}

/// Is sorted slice `a` a subset of sorted slice `b`?
pub(crate) fn is_subset<K: Ord>(a: &[K], b: &[K]) -> bool {
    let mut bi = 0;
    'outer: for x in a {
        while bi < b.len() {
            match b[bi].cmp(x) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Reusable per-search state: an epoch-stamped visited mark per node (a
/// stale epoch means "not visited", so clearing is one counter bump) and
/// the traversal stack.
#[derive(Default)]
struct SearchScratch {
    mark: Vec<u64>,
    epoch: u64,
    stack: Vec<u32>,
}

std::thread_local! {
    /// Pool of search scratches. A pool rather than a single slot because
    /// filter-tree searches nest: the visitor of a level-N search recurses
    /// into level-N+1 lattices, each acquiring its own scratch. Depth is
    /// bounded by the tree depth, so the pool stays tiny.
    static SCRATCH_POOL: RefCell<Vec<SearchScratch>> = const { RefCell::new(Vec::new()) };
}

fn with_scratch<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    let mut scratch = SCRATCH_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default();
    let out = f(&mut scratch);
    SCRATCH_POOL.with(|p| p.borrow_mut().push(scratch));
    out
}

impl<K: Ord + Hash + Clone, V> LatticeIndex<K, V> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct key sets stored.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of stored values.
    pub fn len(&self) -> usize {
        self.nodes.iter().map(|n| n.payload.len()).sum()
    }

    /// Whether the index stores no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key slice of node `id`.
    fn key(&self, id: u32) -> &[K] {
        let n = &self.nodes[id as usize];
        &self.keys[n.key_off as usize..(n.key_off + n.key_len) as usize]
    }

    fn normalize(mut key: Vec<K>) -> Vec<K> {
        key.sort();
        key.dedup();
        key
    }

    /// Insert `value` under the key set `key`.
    pub fn insert(&mut self, key: Vec<K>, value: V) {
        let id = self.get_or_create_node(Self::normalize(key));
        self.nodes[id as usize].payload.push(value);
    }

    /// The first value stored under exactly `key`, mutably (the filter
    /// tree stores exactly one child per key set).
    pub fn peek_mut(&mut self, key: Vec<K>) -> Option<&mut V> {
        let key = Self::normalize(key);
        let &id = self.by_key.get(&key)?;
        self.nodes[id as usize].payload.first_mut()
    }

    /// The first value stored under exactly `key`, read-only. The dual of
    /// [`LatticeIndex::peek_mut`] for audit paths that must not mutate the
    /// index (and in particular must not mint new interner tokens).
    pub fn peek(&self, key: Vec<K>) -> Option<&V> {
        let key = Self::normalize(key);
        let &id = self.by_key.get(&key)?;
        self.nodes[id as usize].payload.first()
    }

    /// Every `(key, value)` pair in the index, in unspecified order. Keys
    /// are the normalized (sorted, deduplicated) stored keys; a key with
    /// several values is yielded once per value.
    pub fn iter(&self) -> impl Iterator<Item = (&[K], &V)> {
        self.nodes.iter().flat_map(|n| {
            let key = &self.keys[n.key_off as usize..(n.key_off + n.key_len) as usize];
            n.payload.iter().map(move |v| (key, v))
        })
    }

    /// Fetch the payload slot for `key`, creating the node (with a payload
    /// built by `make`) if absent. Used by the filter tree, where each key
    /// set owns exactly one child node.
    pub fn get_or_insert_with(&mut self, key: Vec<K>, make: impl FnOnce() -> V) -> &mut V {
        let id = self.get_or_create_node(Self::normalize(key)) as usize;
        if self.nodes[id].payload.is_empty() {
            self.nodes[id].payload.push(make());
        }
        &mut self.nodes[id].payload[0]
    }

    /// Remove one value equal to `value` stored under `key`. Returns
    /// whether a value was removed. The node itself remains as graph
    /// structure.
    pub fn remove(&mut self, key: Vec<K>, value: &V) -> bool
    where
        V: PartialEq,
    {
        let key = Self::normalize(key);
        if let Some(&id) = self.by_key.get(&key) {
            if let Some(pos) = self.nodes[id as usize]
                .payload
                .iter()
                .position(|v| v == value)
            {
                self.nodes[id as usize].payload.remove(pos);
                return true;
            }
        }
        false
    }

    fn get_or_create_node(&mut self, key: Vec<K>) -> u32 {
        if let Some(&id) = self.by_key.get(&key) {
            return id;
        }
        let id = self.nodes.len() as u32;

        // Find the existing supersets and subsets of the new key via the
        // lattice itself, then reduce them to the minimal / maximal ones.
        let mut supers = Vec::new();
        self.collect_down(|k| is_subset(&key, k), |i| supers.push(i));
        let minimal_supers: Vec<u32> = supers
            .iter()
            .copied()
            .filter(|&s| {
                !supers
                    .iter()
                    .any(|&o| o != s && is_subset(self.key(o), self.key(s)))
            })
            .collect();
        let mut subs = Vec::new();
        self.collect_up(|k| is_subset(k, &key), |i| subs.push(i));
        let maximal_subs: Vec<u32> = subs
            .iter()
            .copied()
            .filter(|&s| {
                !subs
                    .iter()
                    .any(|&o| o != s && is_subset(self.key(s), self.key(o)))
            })
            .collect();

        // Cut direct links that now route through the new node.
        for &u in &minimal_supers {
            for &l in &maximal_subs {
                if let Some(p) = self.nodes[u as usize].subsets.iter().position(|&x| x == l) {
                    self.nodes[u as usize].subsets.remove(p);
                }
                if let Some(p) = self.nodes[l as usize]
                    .supersets
                    .iter()
                    .position(|&x| x == u)
                {
                    self.nodes[l as usize].supersets.remove(p);
                }
            }
        }
        // Wire the new node in.
        for &u in &minimal_supers {
            self.nodes[u as usize].subsets.push(id);
        }
        for &l in &maximal_subs {
            self.nodes[l as usize].supersets.push(id);
        }
        // Maintain the incremental top/root lists: every maximal subset
        // gained a superset (the new node), every minimal superset gained
        // a subset; the cut links were all replaced by links through the
        // new node, so no other node's status changes.
        if !maximal_subs.is_empty() {
            self.tops.retain(|t| !maximal_subs.contains(t));
        }
        if !minimal_supers.is_empty() {
            self.roots.retain(|r| !minimal_supers.contains(r));
        }
        if minimal_supers.is_empty() {
            self.tops.push(id);
        }
        if maximal_subs.is_empty() {
            self.roots.push(id);
        }
        let key_off = self.keys.len() as u32;
        let key_len = key.len() as u32;
        self.keys.extend(key.iter().cloned());
        self.nodes.push(Node {
            key_off,
            key_len,
            supersets: minimal_supers,
            subsets: maximal_subs,
            payload: Vec::new(),
        });
        self.by_key.insert(key, id);
        id
    }

    /// Visit every node id whose key satisfies `qualifies`, where
    /// `qualifies` is monotone decreasing under ⊆ (if a key fails, all its
    /// subsets fail). Starts from the tops and follows subset pointers.
    /// Allocation-free: visited marks and the stack come from a pooled,
    /// epoch-stamped scratch.
    fn collect_down(&self, qualifies: impl Fn(&[K]) -> bool, mut visit: impl FnMut(u32)) {
        with_scratch(|scratch| {
            scratch.begin(self.nodes.len());
            scratch.stack.extend(&self.tops);
            while let Some(i) = scratch.stack.pop() {
                if !scratch.first_visit(i) {
                    continue;
                }
                if !qualifies(self.key(i)) {
                    continue;
                }
                visit(i);
                scratch.stack.extend(&self.nodes[i as usize].subsets);
            }
        })
    }

    /// Dual of [`collect_down`]: `qualifies` monotone decreasing under ⊇.
    /// Starts from the roots and follows superset pointers.
    fn collect_up(&self, qualifies: impl Fn(&[K]) -> bool, mut visit: impl FnMut(u32)) {
        with_scratch(|scratch| {
            scratch.begin(self.nodes.len());
            scratch.stack.extend(&self.roots);
            while let Some(i) = scratch.stack.pop() {
                if !scratch.first_visit(i) {
                    continue;
                }
                if !qualifies(self.key(i)) {
                    continue;
                }
                visit(i);
                scratch.stack.extend(&self.nodes[i as usize].supersets);
            }
        })
    }

    /// Visit every value stored under a key that is a superset of (or
    /// equal to) `search`, which must be sorted and deduplicated. The
    /// zero-allocation core of [`LatticeIndex::find_supersets`]; the
    /// filter tree normalizes each level's search once and calls this per
    /// partition.
    pub fn for_each_superset_value<'a>(&'a self, search: &[K], mut f: impl FnMut(&'a V)) {
        debug_assert!(
            search.windows(2).all(|w| w[0] < w[1]),
            "search not normalized"
        );
        self.collect_down(
            |k| is_subset(search, k),
            |i| self.nodes[i as usize].payload.iter().for_each(&mut f),
        );
    }

    /// Visit every value stored under a key that is a subset of (or equal
    /// to) `search`, which must be sorted and deduplicated.
    pub fn for_each_subset_value<'a>(&'a self, search: &[K], mut f: impl FnMut(&'a V)) {
        debug_assert!(
            search.windows(2).all(|w| w[0] < w[1]),
            "search not normalized"
        );
        self.collect_up(
            |k| is_subset(k, search),
            |i| self.nodes[i as usize].payload.iter().for_each(&mut f),
        );
    }

    /// Visit every value under a key satisfying an arbitrary predicate
    /// that is monotone decreasing under subset (the hitting conditions of
    /// sections 4.2.3/4.2.4). The predicate sees the sorted key.
    pub fn for_each_monotone_down_value<'a>(
        &'a self,
        qualifies: impl Fn(&[K]) -> bool,
        mut f: impl FnMut(&'a V),
    ) {
        self.collect_down(qualifies, |i| {
            self.nodes[i as usize].payload.iter().for_each(&mut f)
        });
    }

    /// Values stored under keys that are supersets of (or equal to)
    /// `search`.
    pub fn find_supersets(&self, search: &[K]) -> Vec<&V> {
        let search = Self::normalize(search.to_vec());
        let mut out = Vec::new();
        self.for_each_superset_value(&search, |v| out.push(v));
        out
    }

    /// Values stored under keys that are subsets of (or equal to) `search`.
    pub fn find_subsets(&self, search: &[K]) -> Vec<&V> {
        let search = Self::normalize(search.to_vec());
        let mut out = Vec::new();
        self.for_each_subset_value(&search, |v| out.push(v));
        out
    }

    /// Values under keys satisfying an arbitrary predicate that is
    /// monotone decreasing under subset (used for the hitting conditions
    /// of sections 4.2.3/4.2.4). The predicate sees the sorted key.
    pub fn find_monotone_down(&self, qualifies: impl Fn(&[K]) -> bool) -> Vec<&V> {
        let mut out = Vec::new();
        self.for_each_monotone_down_value(qualifies, |v| out.push(v));
        out
    }

    /// Values under keys satisfying a predicate monotone decreasing under
    /// superset.
    pub fn find_monotone_up(&self, qualifies: impl Fn(&[K]) -> bool) -> Vec<&V> {
        let mut out = Vec::new();
        self.collect_up(qualifies, |i| {
            self.nodes[i as usize]
                .payload
                .iter()
                .for_each(|v| out.push(v))
        });
        out
    }

    /// All values (ignores the lattice structure).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.nodes.iter().flat_map(|n| n.payload.iter())
    }
}

impl SearchScratch {
    /// Start a search over `n` nodes: grow the mark page if needed and
    /// open a fresh epoch (every mark from earlier searches goes stale at
    /// once — no clearing pass).
    fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        self.epoch += 1;
        self.stack.clear();
    }

    /// Mark `i` visited; returns whether this was the first visit this
    /// search.
    fn first_visit(&mut self, i: u32) -> bool {
        let slot = &mut self.mark[i as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the Figure 1 lattice: keys A, B, D, AB, BE, ABC, ABF, BCDE.
    fn figure1() -> LatticeIndex<char, String> {
        let mut idx = LatticeIndex::new();
        for key in ["A", "B", "D", "AB", "BE", "ABC", "ABF", "BCDE"] {
            idx.insert(key.chars().collect(), key.to_string());
        }
        idx
    }

    fn sorted(mut v: Vec<&String>) -> Vec<String> {
        v.sort();
        v.into_iter().cloned().collect()
    }

    #[test]
    fn figure1_superset_search() {
        let idx = figure1();
        // "Suppose we want to find supersets of AB. ... The search returns
        // ABC, ABF, and AB."
        let found = sorted(idx.find_supersets(&['A', 'B']));
        assert_eq!(found, vec!["AB", "ABC", "ABF"]);
    }

    #[test]
    fn figure1_subset_search() {
        let idx = figure1();
        let found = sorted(idx.find_subsets(&['B', 'C', 'D', 'E']));
        assert_eq!(found, vec!["B", "BCDE", "BE", "D"]);
        let found = sorted(idx.find_subsets(&['A', 'B', 'E']));
        assert_eq!(found, vec!["A", "AB", "B", "BE"]);
    }

    #[test]
    fn figure1_structure() {
        let idx = figure1();
        // Tops: ABC, ABF, BCDE. Roots: A, B, D.
        let tops: Vec<String> = idx
            .tops
            .iter()
            .map(|&i| idx.key(i).iter().collect::<String>())
            .collect();
        for t in &tops {
            assert!(
                matches!(t.as_str(), "ABC" | "ABF" | "BCDE"),
                "unexpected top {t}"
            );
        }
        assert_eq!(tops.len(), 3);
        assert_eq!(idx.roots.len(), 3);
        // The incremental lists must agree with a full scan.
        for (i, n) in idx.nodes.iter().enumerate() {
            assert_eq!(
                n.supersets.is_empty(),
                idx.tops.contains(&(i as u32)),
                "top list out of sync at node {i}"
            );
            assert_eq!(
                n.subsets.is_empty(),
                idx.roots.contains(&(i as u32)),
                "root list out of sync at node {i}"
            );
        }
        // AB's minimal supersets are ABC and ABF; its maximal subsets are
        // A and B.
        let ab = idx.by_key[&vec!['A', 'B']] as usize;
        assert_eq!(idx.nodes[ab].supersets.len(), 2);
        assert_eq!(idx.nodes[ab].subsets.len(), 2);
    }

    #[test]
    fn duplicate_keys_share_node() {
        let mut idx = LatticeIndex::new();
        idx.insert(vec![1, 2], "x");
        idx.insert(vec![2, 1, 2], "y"); // same set after normalization
        assert_eq!(idx.node_count(), 1);
        assert_eq!(idx.len(), 2);
        let found = idx.find_supersets(&[1]);
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn empty_key_is_subset_of_everything() {
        let mut idx = LatticeIndex::new();
        idx.insert(vec![], "empty");
        idx.insert(vec![1], "one");
        let found = idx.find_subsets(&[5, 6]);
        assert_eq!(found, vec![&"empty"]);
        let found = idx.find_supersets(&[]);
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn remove_values() {
        let mut idx = LatticeIndex::new();
        idx.insert(vec![1, 2], "x");
        idx.insert(vec![1, 2], "y");
        assert!(idx.remove(vec![2, 1], &"x"));
        assert!(!idx.remove(vec![2, 1], &"x"));
        assert_eq!(idx.find_supersets(&[1]), vec![&"y"]);
        assert!(idx.remove(vec![1, 2], &"y"));
        assert!(idx.is_empty());
        // Node remains as structure; re-insertion reuses it.
        idx.insert(vec![1, 2], "z");
        assert_eq!(idx.node_count(), 1);
    }

    #[test]
    fn monotone_hitting_search() {
        // Condition: key must intersect each of the given classes — the
        // output-column condition of section 4.2.3.
        let mut idx = LatticeIndex::new();
        idx.insert(vec![1, 2, 3], "v123");
        idx.insert(vec![1, 4], "v14");
        idx.insert(vec![2], "v2");
        let classes: Vec<Vec<u32>> = vec![vec![1, 9], vec![3, 4]];
        let hits = |k: &[u32]| {
            classes
                .iter()
                .all(|cl| cl.iter().any(|e| k.binary_search(e).is_ok()))
        };
        let mut found: Vec<_> = idx.find_monotone_down(hits);
        found.sort();
        assert_eq!(found, vec![&"v123", &"v14"]);
    }

    #[test]
    fn chain_insertion_orders() {
        // Insert in an order that forces re-linking: supersets first.
        let mut idx = LatticeIndex::new();
        idx.insert(vec![1, 2, 3, 4], "a");
        idx.insert(vec![1], "b");
        // Now 1 is a subset of 1234 directly.
        idx.insert(vec![1, 2], "c"); // splits the direct link
        idx.insert(vec![1, 2, 3], "d"); // splits again
        let found = sorted(
            idx.find_supersets(&[1])
                .into_iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .iter()
                .collect(),
        );
        assert_eq!(found, vec!["a", "b", "c", "d"]);
        let found = idx.find_subsets(&[1, 2]);
        assert_eq!(found.len(), 2);
        // The direct link 1 -> 1234 must be gone (replaced by chains).
        let one = idx.by_key[&vec![1]] as usize;
        let big = idx.by_key[&vec![1, 2, 3, 4]];
        assert!(!idx.nodes[one].supersets.contains(&big));
        assert!(!idx.nodes[big as usize].subsets.contains(&(one as u32)));
        // Re-linking must keep the incremental lists exact.
        assert_eq!(idx.tops, vec![0]);
        assert_eq!(idx.roots, vec![1]);
    }

    #[test]
    fn incomparable_keys_are_both_roots_and_tops() {
        let mut idx = LatticeIndex::new();
        idx.insert(vec![1], "a");
        idx.insert(vec![2], "b");
        assert_eq!(idx.roots.len(), 2);
        assert_eq!(idx.tops.len(), 2);
        assert!(idx.find_supersets(&[1, 2]).is_empty());
        assert_eq!(idx.find_subsets(&[1, 2]).len(), 2);
    }

    #[test]
    fn visitor_api_matches_collecting_api() {
        let idx = figure1();
        let search: Vec<char> = vec!['A', 'B'];
        let mut via_visitor: Vec<String> = Vec::new();
        idx.for_each_superset_value(&search, |v| via_visitor.push(v.clone()));
        via_visitor.sort();
        assert_eq!(via_visitor, sorted(idx.find_supersets(&search)));

        let search: Vec<char> = vec!['B', 'C', 'D', 'E'];
        let mut via_visitor: Vec<String> = Vec::new();
        idx.for_each_subset_value(&search, |v| via_visitor.push(v.clone()));
        via_visitor.sort();
        assert_eq!(via_visitor, sorted(idx.find_subsets(&search)));
    }

    #[test]
    fn nested_searches_reenter_the_scratch_pool() {
        // A search launched from inside another search's visitor must not
        // corrupt the outer traversal (the filter tree recurses this way).
        let outer = figure1();
        let inner = figure1();
        let mut count = 0;
        outer.for_each_superset_value(&['A'], |_| {
            inner.for_each_subset_value(&['A', 'B', 'E'], |_| count += 1);
        });
        // 4 supersets of A, each triggering a 4-hit inner subset search.
        assert_eq!(count, 16);
    }
}
