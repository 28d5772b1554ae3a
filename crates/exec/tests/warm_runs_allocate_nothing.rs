//! A warm plan-program run allocates nothing: once the [`ExecScratch`],
//! the output [`RowBag`] and the caller's [`JoinIndexes`] have grown to
//! fit, every run reuses them (DESIGN.md §16: the prover's loop over
//! hundreds of thousands of tiny databases rests on it). One scratch and
//! one bag serve, in turn, a query program, an SPJ program, a
//! materializing and a fused substitute, and a delta and an indexed run
//! sharing one index set.
//!
//! [`PlanProgram::execute`] and [`SubstitutePipeline::execute`] empty the
//! scratch's join indexes every run, so their keyed steps scan fewer than
//! eight rows, as the prover's do, and keep the nested loop; the runs over
//! the caller's index set build an index on the first round and probe it
//! after.
//!
//! Its own test binary: it counts allocations through a
//! `#[global_allocator]`.

use mv_catalog::tpch::TpchTables;
use mv_catalog::ColumnId;
use mv_data::{generate_tpch, Database, Row, TpchScale};
use mv_exec::{ExecScratch, JoinIndexes, PlanProgram, RowBag, SubstitutePipeline};
use mv_expr::{BinOp, BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::{
    AggFunc, BackJoin, Freshness, NamedAgg, NamedExpr, OutputList, SpjgExpr, Substitute, ViewId,
};
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

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

fn col(occ: u32, c: u32) -> S {
    S::col(cr(occ, c))
}

/// The programs of one round, each run over the same scratch and bag.
struct Runs {
    /// nation ⋈ region, filtered, grouped by region name.
    grouped: PlanProgram,
    /// A projection of customer with a computed column.
    spj: PlanProgram,
    /// A filter over an aggregate view's rows, backjoined to region.
    materialized: SubstitutePipeline,
    /// A re-aggregation of a bare-column view over customer.
    fused: SubstitutePipeline,
    /// lineitem ⋈ orders grouped by customer, from a lineitem delta and in
    /// full.
    delta: PlanProgram,
    indexed: PlanProgram,
}

fn compile(db: &Database, t: &TpchTables) -> Runs {
    let grouped = SpjgExpr::aggregate(
        vec![t.nation, t.region],
        BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 2), cr(1, 0)),
            BoolExpr::cmp(col(0, 0), CmpOp::Lt, S::lit(20i64)),
        ]),
        vec![NamedExpr::new(col(1, 1), "r_name")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(
                AggFunc::Sum(col(0, 0).binary(BinOp::Mul, S::lit(2i64))),
                "twice",
            ),
        ],
    );
    let spj = SpjgExpr::spj(
        vec![t.customer],
        BoolExpr::cmp(col(0, 5), CmpOp::Gt, S::lit(0.0)),
        vec![
            NamedExpr::new(col(0, 0), "c_custkey"),
            NamedExpr::new(col(0, 1), "c_name"),
            NamedExpr::new(col(0, 5).binary(BinOp::Add, S::lit(1.0)), "bal"),
        ],
    );
    let by_region = SpjgExpr::aggregate(
        vec![t.nation],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(col(0, 2), "n_regionkey")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(col(0, 0)), "keys"),
        ],
    );
    // View columns 0–2, then region's columns 3–5.
    let materialized = Substitute {
        view: ViewId(0),
        backjoins: vec![BackJoin {
            table: t.region,
            key: vec![(0, ColumnId(0))],
        }],
        predicates: vec![BoolExpr::cmp(col(0, 1), CmpOp::Ge, S::lit(1i64))],
        output: OutputList::Spj(vec![
            NamedExpr::new(col(0, 4), "r_name"),
            NamedExpr::new(col(0, 2), "keys"),
        ]),
        freshness: Freshness::Fresh,
    };
    let customers = SpjgExpr::spj(
        vec![t.customer],
        BoolExpr::Literal(true),
        vec![
            NamedExpr::new(col(0, 0), "c_custkey"),
            NamedExpr::new(col(0, 3), "c_nationkey"),
            NamedExpr::new(col(0, 5), "c_acctbal"),
        ],
    );
    let fused = Substitute {
        view: ViewId(1),
        backjoins: vec![],
        predicates: vec![BoolExpr::cmp(col(0, 1), CmpOp::Lt, S::lit(15i64))],
        output: OutputList::Aggregate {
            group_by: vec![NamedExpr::new(col(0, 1), "c_nationkey")],
            aggregates: vec![
                NamedAgg::new(AggFunc::CountStar, "cnt"),
                NamedAgg::new(AggFunc::Sum(col(0, 2)), "bal"),
            ],
        },
        freshness: Freshness::Fresh,
    };
    let orders = SpjgExpr::aggregate(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        vec![NamedExpr::new(col(1, 1), "o_custkey")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(col(0, 4)), "qty"),
        ],
    );
    Runs {
        grouped: PlanProgram::compile(&grouped),
        spj: PlanProgram::compile(&spj),
        materialized: SubstitutePipeline::compile(&db.catalog, &by_region, &materialized),
        fused: SubstitutePipeline::compile(&db.catalog, &customers, &fused),
        delta: PlanProgram::compile_delta(&orders, 0),
        indexed: PlanProgram::compile(&orders),
    }
}

/// What every run writes into: one scratch, one index set, one bag.
#[derive(Default)]
struct Shared {
    scratch: ExecScratch,
    indexes: JoinIndexes,
    bag: RowBag,
}

/// One round of every run: the rows each output, in turn.
fn round(runs: &Runs, db: &Database, delta: &[Row], shared: &mut Shared) -> [usize; 6] {
    let Shared {
        scratch,
        indexes,
        bag,
    } = shared;
    let mut lens = [0; 6];
    runs.grouped.execute(db, scratch, bag);
    lens[0] = bag.len();
    runs.spj.execute(db, scratch, bag);
    lens[1] = bag.len();
    runs.materialized.execute(db, scratch, bag);
    lens[2] = bag.len();
    runs.fused.execute(db, scratch, bag);
    lens[3] = bag.len();
    runs.delta.execute_delta(db, delta, indexes, scratch, bag);
    lens[4] = bag.len();
    runs.indexed.execute_indexed(db, indexes, scratch, bag);
    lens[5] = bag.len();
    lens
}

#[test]
fn warm_runs_allocate_nothing() {
    let (db, t) = generate_tpch(&TpchScale::tiny(), 11);
    let runs = compile(&db, &t);
    let delta = &db.rows(t.lineitem)[..3];
    let mut shared = Shared::default();
    let mut warm = [0; 6];
    for _ in 0..3 {
        warm = round(&runs, &db, delta, &mut shared);
    }
    assert!(warm.iter().all(|&n| n > 0), "every run outputs: {warm:?}");

    let mut lens = warm;
    let before = ALLOCS.with(Cell::get);
    for _ in 0..100 {
        lens = round(&runs, &db, delta, &mut shared);
        if lens != warm {
            break;
        }
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(lens, warm, "a warm round outputs what the first did");
    assert_eq!(allocs, 0, "100 warm rounds allocated {allocs} times");
}
