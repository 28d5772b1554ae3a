//! Base-table backjoins (the section 7 extension): "Base table backjoins
//! cover the case when a view contains all tables and rows needed but some
//! columns are missing. In that case, it may be worthwhile backjoining the
//! view to a base table to pull in the missing columns."
//!
//! Every test verifies the rewrite by execution against the direct oracle.

use mv_core::{MatchConfig, MatchingEngine};
use mv_data::{generate_tpch, Database, TpchScale};
use mv_exec::execute_spjg;
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_lint::oracle::{register_views, Oracle};
use mv_plan::{AggFunc, NamedAgg, NamedExpr, SpjgExpr, Substitute, ViewDef};

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

fn backjoin_config() -> MatchConfig {
    MatchConfig {
        allow_backjoins: true,
        ..MatchConfig::default()
    }
}

/// Register `view` with a backjoin engine over `db` and run the oracle over
/// `query`, asserting it finds nothing: every substitute's rows and the
/// plan's equal the interpreter's. The substitutes.
fn matched(db: &Database, view: ViewDef, query: &SpjgExpr) -> Vec<Substitute> {
    let engine = MatchingEngine::new(db.catalog.clone(), backjoin_config());
    let store = register_views(&engine, db, vec![view]);
    let checked = Oracle::new(&engine, db, &store).check_query(query, "q");
    let subs = checked.assert_sound().substitutes;
    subs.into_iter().map(|(_, sub)| sub).collect()
}

/// View outputs lineitem's primary key but not l_extendedprice; the query
/// needs it. With backjoins the view still answers the query.
#[test]
fn spj_backjoin_recovers_missing_column() {
    let (db, t) = generate_tpch(&TpchScale::tiny(), 61);
    let view = ViewDef::new(
        "li_slim",
        SpjgExpr::spj(
            vec![t.lineitem],
            BoolExpr::cmp(S::col(cr(0, 4)), CmpOp::Gt, S::lit(10i64)),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
                NamedExpr::new(S::col(cr(0, 3)), "l_linenumber"),
                NamedExpr::new(S::col(cr(0, 4)), "l_quantity"),
            ],
        ),
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::and(vec![
            BoolExpr::cmp(S::col(cr(0, 4)), CmpOp::Gt, S::lit(10i64)),
            BoolExpr::cmp(S::col(cr(0, 4)), CmpOp::Le, S::lit(30i64)),
        ]),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
            NamedExpr::new(S::col(cr(0, 5)), "l_extendedprice"), // not in view
        ],
    );

    // Baseline engine: rejected.
    let strict = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
    strict.add_view(view.clone()).unwrap();
    assert!(strict.find_substitutes(&query).is_empty());

    // Backjoin engine: matched and exact.
    let subs = matched(&db, view, &query);
    assert_eq!(subs.len(), 1);
    assert_eq!(subs[0].backjoins.len(), 1);
    assert_eq!(subs[0].backjoins[0].table, t.lineitem);
    assert!(!execute_spjg(&db, &query).is_empty());
}

/// Backjoin via an *equivalent* key: the view outputs o_orderkey (equal to
/// l_orderkey through the join) — good enough to key the orders backjoin.
#[test]
fn backjoin_key_through_equivalence_class() {
    let (db, t) = generate_tpch(&TpchScale::tiny(), 62);
    let view = ViewDef::new(
        "lo",
        SpjgExpr::spj(
            vec![t.lineitem, t.orders],
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"), // == o_orderkey
                NamedExpr::new(S::col(cr(0, 1)), "l_partkey"),
                NamedExpr::new(S::col(cr(0, 3)), "l_linenumber"),
            ],
        ),
    );
    // The query needs o_totalprice, never output by the view.
    let query = SpjgExpr::spj(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        vec![
            NamedExpr::new(S::col(cr(0, 1)), "l_partkey"),
            NamedExpr::new(S::col(cr(1, 3)), "o_totalprice"),
        ],
    );
    let subs = matched(&db, view, &query);
    assert_eq!(subs.len(), 1);
    assert_eq!(subs[0].backjoins.len(), 1);
    assert_eq!(subs[0].backjoins[0].table, t.orders);
}

/// Compensating predicates can live on backjoined columns too.
#[test]
fn compensating_predicate_on_backjoined_column() {
    let (db, t) = generate_tpch(&TpchScale::tiny(), 63);
    let view = ViewDef::new(
        "orders_keys",
        SpjgExpr::spj(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
        ),
    );
    // Query filters on o_custkey, which only the backjoin can reach.
    let query = SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Le, S::lit(10i64)),
        vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
    );
    assert_eq!(matched(&db, view, &query).len(), 1);
    assert!(!execute_spjg(&db, &query).is_empty());
}

/// Aggregation view grouped by a table's primary key: the backjoin
/// recovers functionally-determined columns and the query can regroup on
/// them.
#[test]
fn aggregation_view_backjoin_with_regroup() {
    let (db, t) = generate_tpch(&TpchScale::tiny(), 64);
    // Revenue per order (grouped by the orders PK).
    let view = ViewDef::new(
        "rev_by_order",
        SpjgExpr::aggregate(
            vec![t.lineitem, t.orders],
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            vec![NamedExpr::new(S::col(cr(1, 0)), "o_orderkey")],
            vec![
                NamedAgg::new(AggFunc::CountStar, "cnt"),
                NamedAgg::new(AggFunc::Sum(S::col(cr(0, 4))), "qty"),
            ],
        ),
    );
    // Quantity per customer: o_custkey is reachable only by backjoining
    // orders on the grouped key; regrouping rolls the sums up.
    let query = SpjgExpr::aggregate(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        vec![NamedExpr::new(S::col(cr(1, 1)), "o_custkey")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "n"),
            NamedAgg::new(AggFunc::Sum(S::col(cr(0, 4))), "qty"),
        ],
    );
    let subs = matched(&db, view, &query);
    assert_eq!(subs.len(), 1, "grouped backjoin should match");
    assert_eq!(subs[0].backjoins.len(), 1);
    assert!(subs[0].regroups());
}

/// No usable key → no backjoin: a view without key columns still rejects.
#[test]
fn backjoin_requires_an_output_key() {
    let (db, t) = generate_tpch(&TpchScale::tiny(), 65);
    let view = ViewDef::new(
        "no_keys",
        SpjgExpr::spj(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")], // not a key
        ),
    );
    let query = SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 3)), "o_totalprice")],
    );
    let engine = MatchingEngine::new(db.catalog.clone(), backjoin_config());
    engine.add_view(view).unwrap();
    assert!(engine.find_substitutes(&query).is_empty());
}

/// The optimizer turns backjoins into hash joins and the end-to-end plan
/// is still exact.
#[test]
fn optimizer_executes_backjoin_plans() {
    let (db, t) = generate_tpch(&TpchScale::tiny(), 66);
    let view = ViewDef::new(
        "li_slim",
        SpjgExpr::spj(
            vec![t.lineitem],
            BoolExpr::Literal(true),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
                NamedExpr::new(S::col(cr(0, 3)), "l_linenumber"),
            ],
        ),
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::cmp(S::col(cr(0, 4)), CmpOp::Le, S::lit(25i64)),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
            NamedExpr::new(S::col(cr(0, 5)), "l_extendedprice"),
        ],
    );
    // Whichever plan wins is executed, and so is the substitute
    // alternative itself, even when it would not win on cost.
    let subs = matched(&db, view, &query);
    assert!(
        subs.iter().any(|sub| !sub.backjoins.is_empty()),
        "backjoin substitute expected"
    );
}
