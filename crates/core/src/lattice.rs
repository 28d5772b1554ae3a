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
//! an `(offset, len)` span; the nodes themselves are flat records holding
//! the one value filed under their key set. Exact-key lookup is a binary
//! search over `by_key`, the node ids ordered by their arena slices — the
//! arena is the only copy of a key. Cloning an index — which the filter
//! tree's copy-on-write does on first write to a shared partition —
//! therefore copies a few contiguous pages instead of one heap allocation
//! per node key. The top and root node lists are maintained incrementally
//! on insert, and searches mark visited nodes in a pooled, epoch-stamped
//! scratch instead of allocating a fresh `visited` bitmap per search: a
//! search over a million-node catalog does no per-call allocation at all.
//!
//! Every key a caller passes — to file, to look up or to search with — is
//! a *normalized* set: sorted and deduplicated (checked in debug builds).

use std::cell::RefCell;

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
    /// The value filed under this key set.
    value: V,
}

/// A lattice index: a map from key *sets* to values supporting efficient
/// subset and superset queries. Each key set holds exactly one value (the
/// filter tree files one child partition per key set).
#[derive(Debug, Clone)]
pub struct LatticeIndex<K, V> {
    nodes: Vec<Node<V>>,
    /// Shared key arena; each node's key is a contiguous sorted slice.
    keys: Vec<K>,
    /// Node ids ordered by key slice, for exact-key lookup.
    by_key: Vec<u32>,
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
            by_key: Vec::new(),
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

/// Is `key` sorted and free of duplicates?
pub(crate) fn is_normalized<K: Ord>(key: &[K]) -> bool {
    key.windows(2).all(|w| w[0] < w[1])
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

impl<K: Ord + Clone, V> LatticeIndex<K, V> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct key sets stored.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The key slice of node `id`.
    fn key(&self, id: u32) -> &[K] {
        let n = &self.nodes[id as usize];
        &self.keys[n.key_off as usize..(n.key_off + n.key_len) as usize]
    }

    /// Position of `key`'s node in `by_key`, or where it would go.
    fn position(&self, key: &[K]) -> Result<usize, usize> {
        debug_assert!(is_normalized(key), "key not normalized");
        self.by_key.binary_search_by(|&id| self.key(id).cmp(key))
    }

    /// The value filed under exactly `key`, read-only — audit paths must
    /// not mutate the index.
    pub fn peek(&self, key: &[K]) -> Option<&V> {
        let pos = self.position(key).ok()?;
        Some(&self.nodes[self.by_key[pos] as usize].value)
    }

    /// The value filed under exactly `key`, mutably.
    pub fn peek_mut(&mut self, key: &[K]) -> Option<&mut V> {
        let pos = self.position(key).ok()?;
        Some(&mut self.nodes[self.by_key[pos] as usize].value)
    }

    /// Every `(key, value)` pair in the index, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&[K], &V)> {
        (0..self.nodes.len() as u32).map(|id| (self.key(id), &self.nodes[id as usize].value))
    }

    /// The value filed under `key`, first linking a node holding `make()`
    /// into the lattice if the key set is new.
    pub fn get_or_insert_with(&mut self, key: &[K], make: impl FnOnce() -> V) -> &mut V {
        let id = match self.position(key) {
            Ok(pos) => self.by_key[pos],
            Err(pos) => {
                let id = self.link_node(key, make());
                self.by_key.insert(pos, id);
                id
            }
        };
        &mut self.nodes[id as usize].value
    }

    /// Append a node for the new key set `key` and wire it between its
    /// minimal supersets and maximal subsets.
    fn link_node(&mut self, key: &[K], value: V) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("lattice node ids fit u32");

        // Find the existing supersets and subsets of the new key via the
        // lattice itself, then reduce them to the minimal / maximal ones.
        let mut supers = Vec::new();
        self.collect_down(|k| is_subset(key, k), |i| supers.push(i));
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
        self.collect_up(|k| is_subset(k, key), |i| subs.push(i));
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
        let key_off = self.keys.len();
        self.keys.extend(key.iter().cloned());
        // Bounds `key_off + key_len`, so both casts below are exact.
        assert!(
            self.keys.len() <= u32::MAX as usize,
            "lattice key arena exceeds u32 offsets"
        );
        self.nodes.push(Node {
            key_off: key_off as u32,
            key_len: key.len() as u32,
            supersets: minimal_supers,
            subsets: maximal_subs,
            value,
        });
        id
    }

    /// Visit every node id reachable from `from` along `next` pointers
    /// through nodes whose key satisfies `qualifies`. Allocation-free:
    /// visited marks and the stack come from a pooled, epoch-stamped
    /// scratch.
    fn collect(
        &self,
        from: &[u32],
        next: impl Fn(&Node<V>) -> &[u32],
        qualifies: impl Fn(&[K]) -> bool,
        mut visit: impl FnMut(u32),
    ) {
        with_scratch(|scratch| {
            scratch.begin(self.nodes.len());
            scratch.stack.extend(from);
            while let Some(i) = scratch.stack.pop() {
                if !scratch.first_visit(i) {
                    continue;
                }
                if !qualifies(self.key(i)) {
                    continue;
                }
                visit(i);
                scratch.stack.extend(next(&self.nodes[i as usize]));
            }
        })
    }

    /// Visit every node id whose key satisfies `qualifies`, where
    /// `qualifies` is monotone decreasing under ⊆ (if a key fails, all its
    /// subsets fail). Starts from the tops and follows subset pointers.
    fn collect_down(&self, qualifies: impl Fn(&[K]) -> bool, visit: impl FnMut(u32)) {
        self.collect(&self.tops, |n| &n.subsets, qualifies, visit)
    }

    /// Dual of [`Self::collect_down`]: `qualifies` monotone decreasing under ⊇.
    /// Starts from the roots and follows superset pointers.
    fn collect_up(&self, qualifies: impl Fn(&[K]) -> bool, visit: impl FnMut(u32)) {
        self.collect(&self.roots, |n| &n.supersets, qualifies, visit)
    }

    /// Visit the value of every key that is a superset of (or equal to)
    /// `search`, which must be sorted and deduplicated. Allocation-free;
    /// the filter tree calls this per partition with a search set
    /// normalized once per query.
    pub fn for_each_superset_value<'a>(&'a self, search: &[K], mut f: impl FnMut(&'a V)) {
        debug_assert!(is_normalized(search), "search not normalized");
        self.collect_down(
            |k| is_subset(search, k),
            |i| f(&self.nodes[i as usize].value),
        );
    }

    /// Visit the value of every key that is a subset of (or equal to)
    /// `search`, which must be sorted and deduplicated.
    pub fn for_each_subset_value<'a>(&'a self, search: &[K], mut f: impl FnMut(&'a V)) {
        debug_assert!(is_normalized(search), "search not normalized");
        self.collect_up(
            |k| is_subset(k, search),
            |i| f(&self.nodes[i as usize].value),
        );
    }

    /// Visit the value of every key satisfying an arbitrary predicate that
    /// is monotone decreasing under subset (the hitting conditions of
    /// sections 4.2.3/4.2.4). The predicate sees the sorted key.
    pub fn for_each_monotone_down_value<'a>(
        &'a self,
        qualifies: impl Fn(&[K]) -> bool,
        mut f: impl FnMut(&'a V),
    ) {
        self.collect_down(qualifies, |i| f(&self.nodes[i as usize].value));
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

    /// File `name` under the set of its characters.
    fn file(idx: &mut LatticeIndex<char, String>, name: &str) {
        let mut key: Vec<char> = name.chars().collect();
        key.sort();
        *idx.get_or_insert_with(&key, String::new) = name.to_string();
    }

    /// Build the Figure 1 lattice: keys A, B, D, AB, BE, ABC, ABF, BCDE.
    fn figure1() -> LatticeIndex<char, String> {
        let mut idx = LatticeIndex::new();
        for key in ["A", "B", "D", "AB", "BE", "ABC", "ABF", "BCDE"] {
            file(&mut idx, key);
        }
        idx
    }

    fn supersets(idx: &LatticeIndex<char, String>, search: &str) -> Vec<String> {
        let search: Vec<char> = search.chars().collect();
        let mut out = Vec::new();
        idx.for_each_superset_value(&search, |v| out.push(v.clone()));
        out.sort();
        out
    }

    fn subsets(idx: &LatticeIndex<char, String>, search: &str) -> Vec<String> {
        let search: Vec<char> = search.chars().collect();
        let mut out = Vec::new();
        idx.for_each_subset_value(&search, |v| out.push(v.clone()));
        out.sort();
        out
    }

    #[test]
    fn figure1_superset_search() {
        // "Suppose we want to find supersets of AB. ... The search returns
        // ABC, ABF, and AB."
        assert_eq!(supersets(&figure1(), "AB"), ["AB", "ABC", "ABF"]);
    }

    #[test]
    fn figure1_subset_search() {
        let idx = figure1();
        assert_eq!(subsets(&idx, "BCDE"), ["B", "BCDE", "BE", "D"]);
        assert_eq!(subsets(&idx, "ABE"), ["A", "AB", "B", "BE"]);
    }

    #[test]
    fn figure1_structure() {
        let idx = figure1();
        // Tops: ABC, ABF, BCDE. Roots: A, B, D.
        let mut tops: Vec<&String> = idx
            .tops
            .iter()
            .map(|&i| &idx.nodes[i as usize].value)
            .collect();
        tops.sort();
        assert_eq!(tops, ["ABC", "ABF", "BCDE"]);
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
        let ab = idx.by_key[idx.position(&['A', 'B']).unwrap()] as usize;
        assert_eq!(idx.nodes[ab].supersets.len(), 2);
        assert_eq!(idx.nodes[ab].subsets.len(), 2);
    }

    #[test]
    fn a_key_set_is_filed_once() {
        let mut idx = figure1();
        // A stored key returns its slot without building a value; the
        // arena keeps one copy of each key.
        let slot = idx.get_or_insert_with(&['A', 'B'], || unreachable!("AB is filed"));
        assert_eq!(slot, "AB");
        assert_eq!(idx.node_count(), 8);
        assert_eq!(idx.keys.len(), "ABDABBEABCABFBCDE".len());
        assert_eq!(idx.peek(&['B', 'E']).map(String::as_str), Some("BE"));
        assert_eq!(idx.peek(&['E']), None);
        idx.peek_mut(&['D']).unwrap().push('!');
        assert_eq!(subsets(&idx, "D"), ["D!"]);
        let mut stored: Vec<String> = idx.iter().map(|(k, _)| k.iter().collect()).collect();
        stored.sort();
        assert_eq!(stored, ["A", "AB", "ABC", "ABF", "B", "BCDE", "BE", "D"]);
    }

    #[test]
    fn empty_key_is_subset_of_everything() {
        let mut idx = LatticeIndex::new();
        idx.get_or_insert_with(&[], || "empty");
        idx.get_or_insert_with(&[1], || "one");
        let mut found = Vec::new();
        idx.for_each_subset_value(&[5, 6], |v| found.push(*v));
        assert_eq!(found, ["empty"]);
        let mut found = 0;
        idx.for_each_superset_value(&[], |_| found += 1);
        assert_eq!(found, 2);
    }

    #[test]
    fn monotone_hitting_search() {
        // Condition: key must intersect each of the given classes — the
        // output-column condition of section 4.2.3.
        let mut idx = LatticeIndex::new();
        idx.get_or_insert_with(&[1, 2, 3], || "v123");
        idx.get_or_insert_with(&[1, 4], || "v14");
        idx.get_or_insert_with(&[2], || "v2");
        let classes: Vec<Vec<u32>> = vec![vec![1, 9], vec![3, 4]];
        let hits = |k: &[u32]| {
            classes
                .iter()
                .all(|cl| cl.iter().any(|e| k.binary_search(e).is_ok()))
        };
        let mut found = Vec::new();
        idx.for_each_monotone_down_value(hits, |v| found.push(*v));
        found.sort();
        assert_eq!(found, ["v123", "v14"]);
    }

    #[test]
    fn chain_insertion_orders() {
        // Insert in an order that forces re-linking: supersets first.
        let mut idx = LatticeIndex::new();
        idx.get_or_insert_with(&[1, 2, 3, 4], || "a");
        idx.get_or_insert_with(&[1], || "b");
        // Now 1 is a subset of 1234 directly.
        idx.get_or_insert_with(&[1, 2], || "c"); // splits the direct link
        idx.get_or_insert_with(&[1, 2, 3], || "d"); // splits again
        let mut found = Vec::new();
        idx.for_each_superset_value(&[1], |v| found.push(*v));
        found.sort();
        assert_eq!(found, ["a", "b", "c", "d"]);
        let mut found = 0;
        idx.for_each_subset_value(&[1, 2], |_| found += 1);
        assert_eq!(found, 2);
        // The direct link 1 -> 1234 must be gone (replaced by chains).
        let (big, one) = (0, 1);
        assert!(!idx.nodes[one].supersets.contains(&(big as u32)));
        assert!(!idx.nodes[big].subsets.contains(&(one as u32)));
        // Re-linking must keep the incremental lists exact.
        assert_eq!(idx.tops, vec![0]);
        assert_eq!(idx.roots, vec![1]);
    }

    #[test]
    fn incomparable_keys_are_both_roots_and_tops() {
        let mut idx = LatticeIndex::new();
        idx.get_or_insert_with(&[1], || "a");
        idx.get_or_insert_with(&[2], || "b");
        assert_eq!(idx.roots.len(), 2);
        assert_eq!(idx.tops.len(), 2);
        let mut found = 0;
        idx.for_each_superset_value(&[1, 2], |_| found += 1);
        assert_eq!(found, 0);
        idx.for_each_subset_value(&[1, 2], |_| found += 1);
        assert_eq!(found, 2);
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
