//! The lattice index of section 4.1, and the posting index the filter
//! tree keeps at its hitting levels instead.
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
//! upwards.
//!
//! The hitting conditions of sections 4.2.3/4.2.4 (the key meets every one
//! of the query's column classes) are monotone under ⊆ as well, but a walk
//! down from the tops reads every top, and at the output-column level most
//! nodes are tops. A [`PostingIndex`] answers them the way an inverted
//! index answers a set-containment probe: it keeps, per token, the ids of
//! the nodes whose key holds the token, and a search tests only the nodes
//! on the lists of the query class with the fewest postings. A node that
//! holds no token of that class cannot meet it and is never read.
//!
//! # Storage layout
//!
//! Keys are sets of opaque `u64` tokens. Both indexes keep their nodes in
//! a `KeyTable`: key sets live in one shared arena (`keys`), addressed per
//! node by an `(offset, len)` span; the nodes themselves are flat records
//! holding the item filed under their key set and the key's 64-bit
//! *signature*: one bit per token, OR-ed together (superimposed coding).
//! Exact-key lookup is a binary search over `by_key`, the node ids ordered
//! by their arena slices — the arena is the only copy of a key. Cloning an
//! index — which the filter tree's copy-on-write does on first write to a
//! shared partition — therefore copies a few contiguous arrays instead of
//! one heap allocation per node key.
//!
//! A lattice node's item is its superset and subset links and its value.
//! The top and root node lists are maintained incrementally on insert, and
//! searches mark visited nodes in a pooled, epoch-stamped scratch instead
//! of allocating a fresh `visited` bitmap per search: a search over a
//! million-node catalog does no per-call allocation at all. A posting
//! index's node item is its value alone — a hitting search follows no
//! links — and its postings are three flat arrays (compressed rows): the
//! distinct tokens, ascending; where each token's list ends; and the
//! lists' node ids, one list after another, each ascending.
//!
//! A search tests a node's signature before it reads the node's key. Each
//! condition has a signature form that every qualifying key satisfies
//! (`K ⊆ S` sets no bit outside `sig(S)`; a key meeting class `C` shares a
//! bit with `sig(C)`), so a node whose signature fails is rejected without
//! touching the arena, and one whose signature passes — by a true match or
//! by two tokens sharing a bit — is decided by the exact test. Answers are
//! those of the exact test alone.
//!
//! Every key a caller passes — to file, to look up or to search with — is
//! a *normalized* set: sorted and deduplicated (checked in debug builds;
//! a [`TokenSet`] is normalized when built).

use std::cell::RefCell;

/// The signature bit of one token: the top six bits of a Fibonacci hash
/// pick one of 64.
fn token_bit(token: u64) -> u64 {
    1 << (token.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// The signature of a token set: the OR of its tokens' bits. A subset's
/// signature sets no bit its superset's lacks, and two sets that share a
/// token share that token's bit; the converse of either can fail.
fn signature(tokens: &[u64]) -> u64 {
    tokens.iter().fold(0, |sig, &t| sig | token_bit(t))
}

/// May a set with signature `a` be a subset of one with signature `b`?
fn sig_within(a: u64, b: u64) -> bool {
    a & !b == 0
}

/// A search set: sorted, deduplicated tokens and their signature,
/// computed once when the set is built so that searching with it
/// allocates and hashes nothing.
#[derive(Debug, Clone)]
pub struct TokenSet {
    tokens: Vec<u64>,
    sig: u64,
}

impl TokenSet {
    /// The set the tokens denote.
    pub fn new(tokens: impl IntoIterator<Item = u64>) -> Self {
        let tokens = normalized(tokens);
        let sig = signature(&tokens);
        TokenSet { tokens, sig }
    }

    /// The tokens, sorted and deduplicated.
    pub fn tokens(&self) -> &[u64] {
        &self.tokens
    }

    /// The set's signature: one bit per token, OR-ed together.
    pub fn sig(&self) -> u64 {
        self.sig
    }
}

/// Does the sorted `key` meet every one of `classes`? An empty class list
/// is met by every key; an empty class by none.
pub(crate) fn hits_all(classes: &[TokenSet], key: &[u64]) -> bool {
    classes
        .iter()
        .all(|cl| cl.tokens.iter().any(|e| key.binary_search(e).is_ok()))
}

/// Is sorted slice `a` a subset of sorted slice `b`?
pub(crate) fn is_subset(a: &[u64], b: &[u64]) -> bool {
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

/// The set the tokens denote: sorted, duplicates dropped.
pub(crate) fn normalized(tokens: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut set: Vec<u64> = tokens.into_iter().collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// Is `key` sorted and free of duplicates?
pub(crate) fn is_normalized(key: &[u64]) -> bool {
    key.windows(2).all(|w| w[0] < w[1])
}

/// One node record: the key set's span `[key_off, key_off + key_len)` in
/// the table's arena, the key's [`signature`], and the item filed under
/// it.
#[derive(Debug, Clone)]
struct Node<T> {
    key_off: u32,
    key_len: u32,
    sig: u64,
    item: T,
}

/// The nodes of an index, one per distinct key set, and the arena their
/// keys live in. Nodes are never removed, so a node's id is its position
/// in `nodes` for good.
#[derive(Debug, Clone)]
struct KeyTable<T> {
    nodes: Vec<Node<T>>,
    /// Shared key arena; each node's key is a contiguous sorted slice.
    keys: Vec<u64>,
    /// Node ids ordered by key slice, for exact-key lookup.
    by_key: Vec<u32>,
}

impl<T> Default for KeyTable<T> {
    fn default() -> Self {
        KeyTable {
            nodes: Vec::new(),
            keys: Vec::new(),
            by_key: Vec::new(),
        }
    }
}

impl<T> KeyTable<T> {
    /// The key slice of node `id`.
    fn key(&self, id: u32) -> &[u64] {
        let n = &self.nodes[id as usize];
        &self.keys[n.key_off as usize..(n.key_off + n.key_len) as usize]
    }

    /// Position of `key`'s node in `by_key`, or where it would go.
    fn position(&self, key: &[u64]) -> Result<usize, usize> {
        debug_assert!(is_normalized(key), "key not normalized");
        self.by_key.binary_search_by(|&id| self.key(id).cmp(key))
    }

    /// The item filed under exactly `key`.
    fn peek(&self, key: &[u64]) -> Option<&T> {
        let pos = self.position(key).ok()?;
        Some(&self.nodes[self.by_key[pos] as usize].item)
    }

    /// The item filed under exactly `key`, mutably.
    fn peek_mut(&mut self, key: &[u64]) -> Option<&mut T> {
        let pos = self.position(key).ok()?;
        Some(&mut self.nodes[self.by_key[pos] as usize].item)
    }

    /// Every `(key, item)` pair, in node id order.
    fn iter(&self) -> impl Iterator<Item = (&[u64], &T)> {
        (0..self.nodes.len() as u32).map(|id| (self.key(id), &self.nodes[id as usize].item))
    }

    /// The id the next node appended gets.
    fn next_id(&self) -> u32 {
        u32::try_from(self.nodes.len()).expect("index node ids fit u32")
    }

    /// Append a node filing `item` under the new key set `key`, whose
    /// place in `by_key` is `pos`; returns its id.
    fn push(&mut self, pos: usize, key: &[u64], sig: u64, item: T) -> u32 {
        let id = self.next_id();
        let key_off = self.keys.len();
        self.keys.extend_from_slice(key);
        // Bounds `key_off + key_len`, so both casts below are exact.
        assert!(
            self.keys.len() <= u32::MAX as usize,
            "index key arena exceeds u32 offsets"
        );
        self.nodes.push(Node {
            key_off: key_off as u32,
            key_len: key.len() as u32,
            sig,
            item,
        });
        self.by_key.insert(pos, id);
        id
    }
}

/// A lattice node's item: its links and the value filed under its key.
#[derive(Debug, Clone)]
struct Linked<V> {
    /// Indices of nodes holding minimal proper supersets of the key.
    supersets: Vec<u32>,
    /// Indices of nodes holding maximal proper subsets of the key.
    subsets: Vec<u32>,
    value: V,
}

/// A lattice index: a map from key *sets* to values supporting efficient
/// subset and superset queries. Each key set holds exactly one value (the
/// filter tree files one child partition per key set).
#[derive(Debug, Clone)]
pub struct LatticeIndex<V> {
    table: KeyTable<Linked<V>>,
    /// Nodes with no supersets, maintained incrementally — searches start
    /// here instead of scanning every node.
    tops: Vec<u32>,
    /// Nodes with no subsets, maintained incrementally.
    roots: Vec<u32>,
}

impl<V> Default for LatticeIndex<V> {
    fn default() -> Self {
        LatticeIndex {
            table: KeyTable::default(),
            tops: Vec::new(),
            roots: Vec::new(),
        }
    }
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

impl<V> LatticeIndex<V> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct key sets stored.
    pub fn node_count(&self) -> usize {
        self.table.nodes.len()
    }

    /// The value filed under exactly `key`, read-only — audit paths must
    /// not mutate the index.
    pub fn peek(&self, key: &[u64]) -> Option<&V> {
        self.table.peek(key).map(|n| &n.value)
    }

    /// The value filed under exactly `key`, mutably.
    pub fn peek_mut(&mut self, key: &[u64]) -> Option<&mut V> {
        self.table.peek_mut(key).map(|n| &mut n.value)
    }

    /// Every `(key, value)` pair in the index, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u64], &V)> {
        self.table.iter().map(|(key, n)| (key, &n.value))
    }

    /// The value filed under `key`, first linking a node holding `make()`
    /// into the lattice if the key set is new.
    pub fn get_or_insert_with(&mut self, key: &[u64], make: impl FnOnce() -> V) -> &mut V {
        let id = match self.table.position(key) {
            Ok(pos) => self.table.by_key[pos],
            Err(pos) => {
                let sig = signature(key);
                let (supersets, subsets) = self.link_node(key, sig);
                let linked = Linked {
                    supersets,
                    subsets,
                    value: make(),
                };
                self.table.push(pos, key, sig, linked)
            }
        };
        &mut self.table.nodes[id as usize].item.value
    }

    /// Wire the node the new key set `key` is about to get between its
    /// minimal supersets and maximal subsets; returns those two lists, the
    /// new node's own links.
    fn link_node(&mut self, key: &[u64], sig: u64) -> (Vec<u32>, Vec<u32>) {
        let id = self.table.next_id();

        // Find the existing supersets and subsets of the new key via the
        // lattice itself, then reduce them to the minimal / maximal ones.
        let mut supers = Vec::new();
        self.collect_down(
            |s| sig_within(sig, s),
            |k| is_subset(key, k),
            |i| supers.push(i),
        );
        let table = &self.table;
        let minimal_supers: Vec<u32> = supers
            .iter()
            .copied()
            .filter(|&s| {
                !supers
                    .iter()
                    .any(|&o| o != s && is_subset(table.key(o), table.key(s)))
            })
            .collect();
        let mut subs = Vec::new();
        self.collect_up(
            |s| sig_within(s, sig),
            |k| is_subset(k, key),
            |i| subs.push(i),
        );
        let table = &self.table;
        let maximal_subs: Vec<u32> = subs
            .iter()
            .copied()
            .filter(|&s| {
                !subs
                    .iter()
                    .any(|&o| o != s && is_subset(table.key(s), table.key(o)))
            })
            .collect();

        // Cut direct links that now route through the new node.
        let nodes = &mut self.table.nodes;
        for &u in &minimal_supers {
            for &l in &maximal_subs {
                let upper = &mut nodes[u as usize].item.subsets;
                if let Some(p) = upper.iter().position(|&x| x == l) {
                    upper.remove(p);
                }
                let lower = &mut nodes[l as usize].item.supersets;
                if let Some(p) = lower.iter().position(|&x| x == u) {
                    lower.remove(p);
                }
            }
        }
        // Wire the new node in.
        for &u in &minimal_supers {
            nodes[u as usize].item.subsets.push(id);
        }
        for &l in &maximal_subs {
            nodes[l as usize].item.supersets.push(id);
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
        (minimal_supers, maximal_subs)
    }

    /// Visit every node id reachable from `from` along `next` pointers
    /// through nodes whose key satisfies `qualifies`. `may_qualify` is the
    /// condition's signature form, true of the signature of every key
    /// `qualifies` accepts; a node it rejects is skipped without reading
    /// its key. Allocation-free: visited marks and the stack come from a
    /// pooled, epoch-stamped scratch.
    fn collect(
        &self,
        from: &[u32],
        next: impl Fn(&Linked<V>) -> &[u32],
        may_qualify: impl Fn(u64) -> bool,
        qualifies: impl Fn(&[u64]) -> bool,
        mut visit: impl FnMut(u32),
    ) {
        let table = &self.table;
        with_scratch(|scratch| {
            scratch.begin(table.nodes.len());
            scratch.stack.extend(from);
            while let Some(i) = scratch.stack.pop() {
                if !scratch.first_visit(i) {
                    continue;
                }
                let node = &table.nodes[i as usize];
                debug_assert_eq!(node.sig, signature(table.key(i)), "stale node signature");
                if !may_qualify(node.sig) || !qualifies(table.key(i)) {
                    continue;
                }
                visit(i);
                scratch.stack.extend(next(&node.item));
            }
        })
    }

    /// Visit every node id whose key satisfies `qualifies`, where
    /// `qualifies` is monotone decreasing under ⊆ (if a key fails, all its
    /// subsets fail). Starts from the tops and follows subset pointers.
    fn collect_down(
        &self,
        may_qualify: impl Fn(u64) -> bool,
        qualifies: impl Fn(&[u64]) -> bool,
        visit: impl FnMut(u32),
    ) {
        self.collect(&self.tops, |n| &n.subsets, may_qualify, qualifies, visit)
    }

    /// Dual of [`Self::collect_down`]: `qualifies` monotone decreasing under ⊇.
    /// Starts from the roots and follows superset pointers.
    fn collect_up(
        &self,
        may_qualify: impl Fn(u64) -> bool,
        qualifies: impl Fn(&[u64]) -> bool,
        visit: impl FnMut(u32),
    ) {
        self.collect(&self.roots, |n| &n.supersets, may_qualify, qualifies, visit)
    }

    /// Visit the value of every key that is a superset of (or equal to)
    /// `search`. Allocation-free; the filter tree calls this per partition
    /// with a search set built once per query.
    pub fn for_each_superset_value<'a>(&'a self, search: &TokenSet, mut f: impl FnMut(&'a V)) {
        self.collect_down(
            |sig| sig_within(search.sig, sig),
            |k| is_subset(&search.tokens, k),
            |i| f(&self.table.nodes[i as usize].item.value),
        );
    }

    /// Visit the value of every key that is a subset of (or equal to)
    /// `search`.
    pub fn for_each_subset_value<'a>(&'a self, search: &TokenSet, mut f: impl FnMut(&'a V)) {
        self.collect_up(
            |sig| sig_within(sig, search.sig),
            |k| is_subset(k, &search.tokens),
            |i| f(&self.table.nodes[i as usize].item.value),
        );
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

/// A posting index: a map from key sets to values that answers hitting
/// searches (does the key meet every one of these classes?) through
/// per-token lists of the nodes that hold each token. Each key set holds
/// exactly one value, as in [`LatticeIndex`]; there are no links.
#[derive(Debug, Clone)]
pub struct PostingIndex<V> {
    table: KeyTable<V>,
    /// The distinct tokens of the stored keys, ascending.
    tokens: Vec<u64>,
    /// Where each token's list ends in `ids`; it starts where the
    /// previous token's ends.
    ends: Vec<u32>,
    /// The ids of the nodes holding each token, one token's list after
    /// another, each list ascending.
    ids: Vec<u32>,
}

impl<V> Default for PostingIndex<V> {
    fn default() -> Self {
        PostingIndex {
            table: KeyTable::default(),
            tokens: Vec::new(),
            ends: Vec::new(),
            ids: Vec::new(),
        }
    }
}

impl<V> PostingIndex<V> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct key sets stored.
    pub fn node_count(&self) -> usize {
        self.table.nodes.len()
    }

    /// The value filed under exactly `key`, read-only.
    pub fn peek(&self, key: &[u64]) -> Option<&V> {
        self.table.peek(key)
    }

    /// The value filed under exactly `key`, mutably.
    pub fn peek_mut(&mut self, key: &[u64]) -> Option<&mut V> {
        self.table.peek_mut(key)
    }

    /// Every `(key, value)` pair in the index, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u64], &V)> {
        self.table.iter()
    }

    /// The value filed under `key`, first posting a node holding `make()`
    /// on its tokens' lists if the key set is new.
    pub fn get_or_insert_with(&mut self, key: &[u64], make: impl FnOnce() -> V) -> &mut V {
        let id = match self.table.position(key) {
            Ok(pos) => self.table.by_key[pos],
            Err(pos) => {
                let id = self.table.push(pos, key, signature(key), make());
                self.post(id, key);
                id
            }
        };
        &mut self.table.nodes[id as usize].item
    }

    /// Where the list of the `i`-th token starts in `ids`.
    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1] as usize
        }
    }

    /// The ids of the nodes whose key holds `token`, ascending.
    fn postings(&self, token: u64) -> &[u32] {
        match self.tokens.binary_search(&token) {
            Ok(i) => &self.ids[self.start(i)..self.ends[i] as usize],
            Err(_) => &[],
        }
    }

    /// Append node `id`, newer than every node posted so far, to the list
    /// of each token of `key`. One pass from the back moves each later
    /// list up by the number of ids inserted before it.
    fn post(&mut self, id: u32, key: &[u64]) {
        for &token in key {
            if let Err(i) = self.tokens.binary_search(&token) {
                let start = self.start(i) as u32;
                self.tokens.insert(i, token);
                self.ends.insert(i, start);
            }
        }
        let old = self.ids.len();
        assert!(
            old + key.len() <= u32::MAX as usize,
            "posting lists exceed u32 offsets"
        );
        self.ids.resize(old + key.len(), 0);
        let mut moved_to = old;
        for (j, token) in key.iter().enumerate().rev() {
            let i = self.tokens.binary_search(token).expect("posted above");
            let end = self.ends[i] as usize;
            // The lists after this token's move up by the `j + 1` ids
            // inserted at or before it; this one gains `id` at its end.
            self.ids.copy_within(end..moved_to, end + j + 1);
            self.ids[end + j] = id;
            moved_to = end;
        }
        let mut inserted = 0;
        let mut key = key.iter().peekable();
        for (token, end) in self.tokens.iter().zip(&mut self.ends) {
            if key.next_if_eq(&token).is_some() {
                inserted += 1;
            }
            *end += inserted;
        }
    }

    /// How many postings the lists of `class`'s tokens hold together.
    fn posted(&self, class: &TokenSet) -> usize {
        class.tokens.iter().map(|&t| self.postings(t).len()).sum()
    }

    /// Visit the value of every key that meets each of `classes` (the
    /// hitting conditions of sections 4.2.3/4.2.4); an empty class list is
    /// met by every key. Only the nodes on the lists of the class with the
    /// fewest postings are read, each once: its signature first, then its
    /// key. Allocation-free.
    pub fn for_each_hitting_value<'a>(&'a self, classes: &[TokenSet], mut f: impl FnMut(&'a V)) {
        let Some(rarest) = classes.iter().min_by_key(|cl| self.posted(cl)) else {
            self.table.nodes.iter().for_each(|n| f(&n.item));
            return;
        };
        for (at, &token) in rarest.tokens.iter().enumerate() {
            for &id in self.postings(token) {
                let node = &self.table.nodes[id as usize];
                debug_assert_eq!(
                    node.sig,
                    signature(self.table.key(id)),
                    "stale node signature"
                );
                if !classes.iter().all(|cl| cl.sig & node.sig != 0) {
                    continue;
                }
                let key = self.table.key(id);
                // A key holding an earlier token of the class was tested
                // on that token's list.
                let seen = rarest.tokens[..at]
                    .iter()
                    .any(|t| key.binary_search(t).is_ok());
                if !seen && hits_all(classes, key) {
                    f(&node.item);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set of `name`'s characters, one token each.
    fn chars(name: &str) -> Vec<u64> {
        TokenSet::new(name.chars().map(u64::from)).tokens
    }

    /// File `name` under the set of its characters.
    fn file(idx: &mut LatticeIndex<String>, name: &str) {
        *idx.get_or_insert_with(&chars(name), String::new) = name.to_string();
    }

    /// Build the Figure 1 lattice: keys A, B, D, AB, BE, ABC, ABF, BCDE.
    fn figure1() -> LatticeIndex<String> {
        let mut idx = LatticeIndex::new();
        for key in ["A", "B", "D", "AB", "BE", "ABC", "ABF", "BCDE"] {
            file(&mut idx, key);
        }
        idx
    }

    fn supersets(idx: &LatticeIndex<String>, search: &str) -> Vec<String> {
        let search = TokenSet::new(chars(search));
        let mut out = Vec::new();
        idx.for_each_superset_value(&search, |v| out.push(v.clone()));
        out.sort();
        out
    }

    fn subsets(idx: &LatticeIndex<String>, search: &str) -> Vec<String> {
        let search = TokenSet::new(chars(search));
        let mut out = Vec::new();
        idx.for_each_subset_value(&search, |v| out.push(v.clone()));
        out.sort();
        out
    }

    /// The node of `key` in `idx`.
    fn node<'a>(idx: &'a LatticeIndex<String>, key: &str) -> &'a Linked<String> {
        idx.table.peek(&chars(key)).expect("key is filed")
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
        let value = |i: &u32| &idx.table.nodes[*i as usize].item.value;
        // Tops: ABC, ABF, BCDE. Roots: A, B, D.
        let mut tops: Vec<&String> = idx.tops.iter().map(value).collect();
        tops.sort();
        assert_eq!(tops, ["ABC", "ABF", "BCDE"]);
        assert_eq!(idx.roots.len(), 3);
        // The incremental lists must agree with a full scan.
        for (i, n) in idx.table.nodes.iter().enumerate() {
            assert_eq!(
                n.item.supersets.is_empty(),
                idx.tops.contains(&(i as u32)),
                "top list out of sync at node {i}"
            );
            assert_eq!(
                n.item.subsets.is_empty(),
                idx.roots.contains(&(i as u32)),
                "root list out of sync at node {i}"
            );
        }
        // AB's minimal supersets are ABC and ABF; its maximal subsets are
        // A and B.
        let ab = node(&idx, "AB");
        assert_eq!(ab.supersets.len(), 2);
        assert_eq!(ab.subsets.len(), 2);
    }

    #[test]
    fn a_key_set_is_filed_once() {
        let mut idx = figure1();
        // A stored key returns its slot without building a value; the
        // arena keeps one copy of each key.
        let slot = idx.get_or_insert_with(&chars("AB"), || unreachable!("AB is filed"));
        assert_eq!(slot, "AB");
        assert_eq!(idx.node_count(), 8);
        assert_eq!(idx.table.keys.len(), "ABDABBEABCABFBCDE".len());
        assert_eq!(idx.peek(&chars("BE")).map(String::as_str), Some("BE"));
        assert_eq!(idx.peek(&chars("E")), None);
        idx.peek_mut(&chars("D")).unwrap().push('!');
        assert_eq!(subsets(&idx, "D"), ["D!"]);
        let mut stored: Vec<String> = idx
            .iter()
            .map(|(k, _)| k.iter().map(|&c| c as u8 as char).collect())
            .collect();
        stored.sort();
        assert_eq!(stored, ["A", "AB", "ABC", "ABF", "B", "BCDE", "BE", "D"]);
    }

    #[test]
    fn empty_key_is_subset_of_everything() {
        let mut idx = LatticeIndex::new();
        idx.get_or_insert_with(&[], || "empty");
        idx.get_or_insert_with(&[1], || "one");
        let mut found = Vec::new();
        idx.for_each_subset_value(&TokenSet::new([5, 6]), |v| found.push(*v));
        assert_eq!(found, ["empty"]);
        let mut found = 0;
        idx.for_each_superset_value(&TokenSet::new([]), |_| found += 1);
        assert_eq!(found, 2);
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
        idx.for_each_superset_value(&TokenSet::new([1]), |v| found.push(*v));
        found.sort();
        assert_eq!(found, ["a", "b", "c", "d"]);
        let mut found = 0;
        idx.for_each_subset_value(&TokenSet::new([1, 2]), |_| found += 1);
        assert_eq!(found, 2);
        // The direct link 1 -> 1234 must be gone (replaced by chains).
        let (big, one) = (&idx.table.nodes[0].item, &idx.table.nodes[1].item);
        assert!(!one.supersets.contains(&0));
        assert!(!big.subsets.contains(&1));
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
        let both = TokenSet::new([1, 2]);
        let mut found = 0;
        idx.for_each_superset_value(&both, |_| found += 1);
        assert_eq!(found, 0);
        idx.for_each_subset_value(&both, |_| found += 1);
        assert_eq!(found, 2);
    }

    #[test]
    fn nested_searches_reenter_the_scratch_pool() {
        // A search launched from inside another search's visitor must not
        // corrupt the outer traversal (the filter tree recurses this way).
        let outer = figure1();
        let inner = figure1();
        let mut count = 0;
        let (a, abe) = (TokenSet::new(chars("A")), TokenSet::new(chars("ABE")));
        outer.for_each_superset_value(&a, |_| {
            inner.for_each_subset_value(&abe, |_| count += 1);
        });
        // 4 supersets of A, each triggering a 4-hit inner subset search.
        assert_eq!(count, 16);
    }

    #[test]
    fn monotone_hitting_search() {
        // Condition: key must intersect each of the given classes — the
        // output-column condition of section 4.2.3.
        let mut idx = PostingIndex::new();
        idx.get_or_insert_with(&[1, 2, 3], || "v123");
        idx.get_or_insert_with(&[1, 4], || "v14");
        idx.get_or_insert_with(&[2], || "v2");
        let hitting = |classes: &[TokenSet]| {
            let mut found = Vec::new();
            idx.for_each_hitting_value(classes, |v| found.push(*v));
            found.sort();
            found
        };
        let classes = [TokenSet::new([1, 9]), TokenSet::new([3, 4])];
        assert_eq!(hitting(&classes), ["v123", "v14"]);
        // A key holding two tokens of the rarest class is visited once.
        assert_eq!(hitting(&[TokenSet::new([1, 2])]), ["v123", "v14", "v2"]);
        assert_eq!(hitting(&[]), ["v123", "v14", "v2"]);
        assert!(hitting(&[TokenSet::new([])]).is_empty());
        assert!(hitting(&[TokenSet::new([9])]).is_empty());
    }

    /// The postings are exactly the inverse of the node keys: the tokens
    /// are the stored keys' distinct tokens, ascending, and each token's
    /// list holds, ascending, the ids of the nodes whose key holds it.
    fn assert_postings_invert_keys<V>(idx: &PostingIndex<V>) {
        let mut tokens: Vec<u64> = idx.table.keys.clone();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(idx.tokens, tokens);
        assert_eq!(idx.ends.len(), tokens.len());
        assert_eq!(idx.ends.last().map_or(0, |&e| e as usize), idx.ids.len());
        for (i, &token) in tokens.iter().enumerate() {
            let holders: Vec<u32> = (0..idx.table.nodes.len() as u32)
                .filter(|&id| idx.table.key(id).contains(&token))
                .collect();
            assert_eq!(idx.postings(token), holders, "list of token {token}");
            assert_eq!(idx.start(i) + holders.len(), idx.ends[i] as usize);
        }
    }

    #[test]
    fn postings_are_the_inverse_of_the_keys() {
        let mut idx = PostingIndex::new();
        let keys: [&[u64]; 7] = [&[5, 9], &[1, 5], &[], &[9], &[1, 2, 5, 9], &[0, 12], &[2]];
        for (value, key) in keys.iter().enumerate() {
            idx.get_or_insert_with(key, || value);
            assert_postings_invert_keys(&idx);
        }
        // A key filed again adds no node and no posting.
        idx.get_or_insert_with(&[1, 5], || unreachable!("filed"));
        assert_eq!(idx.node_count(), keys.len());
        assert_postings_invert_keys(&idx);

        // Copy-on-write: the published original is a clone's source; a
        // write to the clone posts there alone.
        let published = idx.clone();
        let mut next = idx.clone();
        next.get_or_insert_with(&[0, 3, 9, 13], || 7);
        next.get_or_insert_with(&[13], || 8);
        *next.peek_mut(&[9]).unwrap() = 30;
        assert_postings_invert_keys(&next);
        assert_postings_invert_keys(&published);
        assert_eq!(published.node_count(), keys.len());
        assert_eq!(
            (published.tokens.clone(), published.ids.clone()),
            (idx.tokens, idx.ids)
        );
        assert_eq!(published.peek(&[9]), Some(&3));
        assert_eq!(published.peek(&[0, 3, 9, 13]), None);
        assert_eq!(next.peek(&[0, 3, 9, 13]), Some(&7));
        assert_eq!(next.postings(13), [7, 8]);
        assert!(published.postings(13).is_empty());
    }
}
