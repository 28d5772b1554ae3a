//! What the SQL front end allocates per statement, over the generator's
//! rendered queries: the lexer allocates its token vector and one string
//! per string literal, and nothing per identifier or keyword; parsing and
//! binding stay at or below the averages pinned here (DESIGN.md §20).
//!
//! Its own test binary: it counts allocations through a
//! `#[global_allocator]`.

use mv_catalog::tpch::tpch_catalog;
use mv_plan::display::sql_of;
use mv_sql::lexer::{tokenize, Token};
use mv_sql::{binder, parser};
use mv_workload::{Generator, WorkloadParams};
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

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// What `parser::parse` allocates over this test's 256 queries, 10.88 a
/// query; 40.66 a query while names were `String`s and keywords were
/// identifiers.
const PARSE_ALLOCS: usize = 2_786;
/// What `binder::bind` allocates over them, 18.11 a query; 21.75 a query
/// while the binder copied every FROM label.
const BIND_ALLOCS: usize = 4_637;

#[test]
fn front_end_allocations_per_rendered_query() {
    let (catalog, _) = tpch_catalog();
    let mut sqls = Vec::new();
    for seed in 1..=4 {
        let queries = Generator::new(&catalog, WorkloadParams::queries(), seed).queries(64);
        sqls.extend(queries.iter().map(|q| sql_of(q, &catalog)));
    }
    let (mut parse_allocs, mut bind_allocs) = (0, 0);
    for sql in &sqls {
        let (tokens, lex_allocs) = counted(|| tokenize(sql).expect("rendered SQL lexes"));
        let literals = tokens
            .iter()
            .filter(|t| matches!(t.token, Token::Str(_)))
            .count();
        assert_eq!(lex_allocs, 1 + literals, "{sql}");
        let (ast, n) = counted(|| parser::parse(&tokens).expect("rendered SQL parses"));
        parse_allocs += n;
        let (bound, n) = counted(|| binder::bind(ast, &catalog).expect("rendered SQL binds"));
        bind_allocs += n;
        drop(bound);
    }
    assert_eq!(sqls.len(), 256);
    assert!(
        parse_allocs <= PARSE_ALLOCS,
        "parse allocates {parse_allocs}"
    );
    assert!(bind_allocs <= BIND_ALLOCS, "bind allocates {bind_allocs}");
}
