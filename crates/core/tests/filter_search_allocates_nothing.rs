//! A warm filter-tree search allocates nothing: the query side's sets and
//! their signatures are built once, before the search, and the descent
//! borrows them; lattice searches mark and stack nodes in pooled scratch,
//! posting searches read their lists in place, chains are tested in
//! place, and the caller's output buffer has grown to fit. A search that
//! built anything per index it entered — a class signature list, a
//! normalized key, a list of the nodes a posting search has seen — would
//! allocate thousands of times over these probes.
//!
//! Its own test binary: it counts allocations through a
//! `#[global_allocator]`.

use mv_core::{FilterTree, LevelSearch, TokenSet, LEVEL_CONDITIONS, SPJ_LEVELS, SPJ_NESTING};
use mv_plan::ViewId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each thread's allocations. The trait's
/// default `alloc_zeroed` and `realloc` allocate through `alloc`, so they
/// count too.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods pass their arguments unchanged to `System`, whose
// contract is this trait's; counting touches only a const-initialized
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot is gone while the thread is torn down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> usize {
    ALLOCS.with(Cell::get)
}

/// A xorshift generator: the tree and the probes are the same every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    /// Up to `most` tokens from `base..base + span`.
    fn tokens(&mut self, most: u64, base: u64, span: u64) -> Vec<u64> {
        let n = self.below(most + 1);
        (0..n).map(|_| base + self.below(span)).collect()
    }
}

/// The six levels of the engine's SPJ tree, by condition kind: hub
/// (subset), source tables and output expressions (superset), output
/// columns (hitting), residuals and range columns (subset). Each level
/// draws from an alphabet small enough that partitions hold many key sets
/// at it, so searches enter lattices at every kind.
fn view_keys(rng: &mut Rng) -> Vec<Vec<u64>> {
    let hub = vec![rng.below(8)];
    let mut tables = hub.clone();
    tables.extend(rng.tokens(2, 0, 8));
    vec![
        hub,
        tables,
        rng.tokens(1, 100, 4),
        [vec![200 + rng.below(40)], rng.tokens(3, 200, 40)].concat(),
        rng.tokens(1, 300, 3),
        rng.tokens(2, 400, 10),
    ]
}

fn probe(rng: &mut Rng) -> Vec<LevelSearch> {
    let class = |rng: &mut Rng| TokenSet::new((0..3).map(|_| 200 + rng.below(40)));
    vec![
        LevelSearch::Subset(TokenSet::new(rng.tokens(6, 0, 8))),
        LevelSearch::Superset(TokenSet::new(rng.tokens(1, 0, 8))),
        LevelSearch::Superset(TokenSet::new(rng.tokens(1, 100, 4))),
        LevelSearch::Hitting((0..1 + rng.below(2)).map(|_| class(rng)).collect()),
        LevelSearch::Subset(TokenSet::new(rng.tokens(3, 300, 3))),
        LevelSearch::Subset(TokenSet::new(rng.tokens(8, 400, 10))),
    ]
}

/// The engine's SPJ nesting, and one that puts the output-column level at
/// the root, where one posting index holds every distinct output-column
/// key of the 5,000 views.
#[test]
fn warm_searches_allocate_nothing() {
    let hitting_root = [3, 0, 1, 2, 4, 5];
    for nesting in [SPJ_NESTING, hitting_root] {
        warm_searches_allocate_nothing_nested(&nesting);
    }
}

fn warm_searches_allocate_nothing_nested(nesting: &[usize]) {
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    let mut tree = FilterTree::new(nesting, &LEVEL_CONDITIONS[..SPJ_LEVELS]);
    let mut output_cols = Vec::new();
    for view in 0..5_000 {
        let mut keys = view_keys(&mut rng);
        tree.insert(&keys, ViewId(view));
        keys[3].sort_unstable();
        keys[3].dedup();
        output_cols.push(keys.swap_remove(3));
    }
    output_cols.sort();
    output_cols.dedup();
    assert!(
        output_cols.len() > 500,
        "the output-column level holds {} key sets",
        output_cols.len()
    );
    let probes: Vec<Vec<LevelSearch>> = (0..10).map(|_| probe(&mut rng)).collect();

    // Cold pass: the scratch pool, its mark pages and the output buffer
    // grow to fit the largest search.
    let mut out = Vec::new();
    let mut found = 0;
    for searches in &probes {
        out.clear();
        tree.search_into(searches, &mut out);
        found += out.len();
    }
    assert!(found > 0, "the probes find views");

    let before = allocations();
    let mut warm = 0;
    for round in 0..100 {
        out.clear();
        tree.search_into(&probes[round % probes.len()], &mut out);
        warm += out.len();
    }
    let allocated = allocations() - before;
    assert_eq!(warm, found * 10, "warm searches answer like cold ones");
    assert_eq!(
        allocated, 0,
        "100 warm searches nested {nesting:?} allocated {allocated} times"
    );
}
