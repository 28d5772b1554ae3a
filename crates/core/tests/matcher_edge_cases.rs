//! Edge cases of the matching algorithm beyond the paper's worked
//! examples: composite foreign keys, chains of extra tables, expression
//! grouping, and multi-view ranking. All positive cases are verified by
//! execution against the direct oracle.

use mv_core::{MatchConfig, MatchingEngine};
use mv_data::{generate_tpch, Database, TpchScale};
use mv_exec::{execute_spjg, ViewStore};
use mv_expr::{BinOp, BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_lint::oracle::{register_views, Oracle};
use mv_plan::{AggFunc, NamedAgg, NamedExpr, OutputList, SpjgExpr, Substitute, ViewDef, ViewId};

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

/// The oracle over `query`, asserting it finds nothing: every substitute's
/// rows and the plan's equal the interpreter's. The substitutes.
fn sound_substitutes(
    engine: &MatchingEngine,
    db: &Database,
    store: &ViewStore,
    query: &SpjgExpr,
) -> Vec<(ViewId, Substitute)> {
    let checked = Oracle::new(engine, db, store).check_query(query, "q");
    checked.assert_sound().substitutes
}

fn check_pair(view: SpjgExpr, query: SpjgExpr, seed: u64) -> usize {
    let (db, _) = generate_tpch(&TpchScale::tiny(), seed);
    let engine = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
    let store = register_views(&engine, &db, vec![ViewDef::new("v", view)]);
    sound_substitutes(&engine, &db, &store, &query).len()
}

/// Extra table joined through the *composite* foreign key
/// lineitem(l_partkey, l_suppkey) → partsupp(ps_partkey, ps_suppkey).
#[test]
fn composite_fk_extra_table_eliminated() {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let view = SpjgExpr::spj(
        vec![t.lineitem, t.partsupp],
        BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 1), cr(1, 0)), // l_partkey = ps_partkey
            BoolExpr::col_eq(cr(0, 2), cr(1, 1)), // l_suppkey = ps_suppkey
        ]),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
            NamedExpr::new(S::col(cr(0, 4)), "l_quantity"),
        ],
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
            NamedExpr::new(S::col(cr(0, 4)), "l_quantity"),
        ],
    );
    assert_eq!(check_pair(view, query, 71), 1);
}

/// Composite FK with only *one* of the two columns equated: the join is
/// not cardinality preserving and the view must be rejected.
#[test]
fn partial_composite_fk_rejected() {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let view = SpjgExpr::spj(
        vec![t.lineitem, t.partsupp],
        BoolExpr::col_eq(cr(0, 1), cr(1, 0)), // partkey only
        vec![NamedExpr::new(S::col(cr(0, 0)), "l_orderkey")],
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 0)), "l_orderkey")],
    );
    assert_eq!(check_pair(view, query, 71), 0);
}

/// A three-deep chain of extra tables: lineitem → orders → customer →
/// nation, query over lineitem only.
#[test]
fn chain_of_three_extra_tables() {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let view = SpjgExpr::spj(
        vec![t.lineitem, t.orders, t.customer, t.nation],
        BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)), // l_orderkey = o_orderkey
            BoolExpr::col_eq(cr(1, 1), cr(2, 0)), // o_custkey = c_custkey
            BoolExpr::col_eq(cr(2, 3), cr(3, 0)), // c_nationkey = n_nationkey
        ]),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
            NamedExpr::new(S::col(cr(0, 1)), "l_partkey"),
        ],
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
            NamedExpr::new(S::col(cr(0, 1)), "l_partkey"),
        ],
    );
    assert_eq!(check_pair(view, query, 72), 1);
}

/// Two branching extra tables (orders and part) hanging off lineitem.
#[test]
fn branching_extra_tables() {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let view = SpjgExpr::spj(
        vec![t.lineitem, t.orders, t.part],
        BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::col_eq(cr(0, 1), cr(2, 0)),
        ]),
        vec![NamedExpr::new(S::col(cr(0, 4)), "l_quantity")],
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 4)), "l_quantity")],
    );
    assert_eq!(check_pair(view, query, 73), 1);
}

/// A query over a *middle* table of the view's chain: orders answered from
/// a lineitem-orders-customer view must be rejected (lineitem cannot be
/// eliminated: the FK points from lineitem to orders, and dropping it
/// would change cardinality).
#[test]
fn upstream_extra_table_cannot_be_eliminated() {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let view = SpjgExpr::spj(
        vec![t.lineitem, t.orders, t.customer],
        BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::col_eq(cr(1, 1), cr(2, 0)),
        ]),
        vec![
            NamedExpr::new(S::col(cr(1, 0)), "o_orderkey"),
            NamedExpr::new(S::col(cr(1, 3)), "o_totalprice"),
        ],
    );
    let query = SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::Literal(true),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "o_orderkey"),
            NamedExpr::new(S::col(cr(0, 3)), "o_totalprice"),
        ],
    );
    assert_eq!(check_pair(view, query, 74), 0);
}

/// Grouping on an *expression*: both sides group by l_quantity * 10; the
/// templates must match through the shallow matcher.
#[test]
fn expression_grouping_matches_textually() {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let bucket = S::col(cr(0, 4)).binary(BinOp::Mul, S::lit(10i64));
    let view = SpjgExpr::aggregate(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(bucket.clone(), "bucket")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(S::col(cr(0, 5))), "price"),
        ],
    );
    let query = SpjgExpr::aggregate(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(bucket, "bucket")],
        vec![NamedAgg::new(AggFunc::Sum(S::col(cr(0, 5))), "price")],
    );
    assert_eq!(check_pair(view, query, 75), 1);
    // A *different* grouping expression must not match.
    let other = S::col(cr(0, 4)).binary(BinOp::Mul, S::lit(20i64));
    let view = SpjgExpr::aggregate(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(other, "bucket")],
        vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
    );
    let query = SpjgExpr::aggregate(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(
            S::col(cr(0, 4)).binary(BinOp::Mul, S::lit(10i64)),
            "bucket",
        )],
        vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
    );
    assert_eq!(check_pair(view, query, 75), 0);
}

/// The shallow matcher's commutativity is *textual* (the paper's level
/// one beyond pure syntax): `SUM(10 * a)` matches `SUM(a * 10)` because
/// the rendered operand texts differ and canonicalize, but `SUM(b * a)`
/// vs `SUM(a * b)` does not — both operands render as `?`, so the
/// placeholder order is positional, exactly the kind of missed
/// opportunity the paper accepts for speed.
#[test]
fn commutativity_is_textual_not_positional() {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    // Literal-column products commute.
    let view = SpjgExpr::aggregate(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 1)), "l_partkey")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(
                AggFunc::Sum(S::lit(10i64).binary(BinOp::Mul, S::col(cr(0, 4)))),
                "rev",
            ),
        ],
    );
    let query = SpjgExpr::aggregate(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 1)), "l_partkey")],
        vec![NamedAgg::new(
            AggFunc::Sum(S::col(cr(0, 4)).binary(BinOp::Mul, S::lit(10i64))),
            "rev",
        )],
    );
    assert_eq!(check_pair(view, query, 76), 1);
    // Column-column products do not (both operands render as `?`).
    let view = SpjgExpr::aggregate(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 1)), "l_partkey")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(
                AggFunc::Sum(S::col(cr(0, 5)).binary(BinOp::Mul, S::col(cr(0, 4)))),
                "rev",
            ),
        ],
    );
    let query = SpjgExpr::aggregate(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 1)), "l_partkey")],
        vec![NamedAgg::new(
            AggFunc::Sum(S::col(cr(0, 4)).binary(BinOp::Mul, S::col(cr(0, 5)))),
            "rev",
        )],
    );
    assert_eq!(check_pair(view, query, 76), 0);
}

/// Several views match one query; all produced substitutes are correct
/// and distinct.
#[test]
fn multiple_views_all_produce_correct_substitutes() {
    let (db, t) = generate_tpch(&TpchScale::tiny(), 77);
    let engine = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
    let mut views = Vec::new();
    for (name, lo, hi) in [("wide", 0, 10_000), ("mid", 0, 5_000), ("snug", 50, 900)] {
        views.push(ViewDef::new(
            name,
            SpjgExpr::spj(
                vec![t.orders],
                BoolExpr::and(vec![
                    BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(lo)),
                    BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Le, S::lit(hi)),
                ]),
                vec![
                    NamedExpr::new(S::col(cr(0, 0)), "o_orderkey"),
                    NamedExpr::new(S::col(cr(0, 3)), "o_totalprice"),
                ],
            ),
        ));
    }
    let store = register_views(&engine, &db, views);
    let query = SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::and(vec![
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(60i64)),
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Le, S::lit(80i64)),
        ]),
        vec![NamedExpr::new(S::col(cr(0, 3)), "o_totalprice")],
    );
    let subs = sound_substitutes(&engine, &db, &store, &query);
    assert_eq!(subs.len(), 3, "all three views contain the window");
}

/// A view with an exclusive bound does not cover a query with the matching
/// inclusive bound (the open/closed distinction of the range test).
#[test]
fn open_bound_does_not_cover_closed_bound() {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let view = SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Gt, S::lit(100i64)),
        vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
    );
    let query = SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(100i64)),
        vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
    );
    assert_eq!(check_pair(view, query, 78), 0);
    // The other way around works, with a compensating strict bound.
    let view = SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(100i64)),
        vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
    );
    let query = SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Gt, S::lit(100i64)),
        vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
    );
    assert_eq!(check_pair(view, query, 78), 1);
}

/// Date-typed ranges flow through the whole pipeline.
#[test]
fn date_range_subsumption_and_compensation() {
    use mv_catalog::types::days_from_date;
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let d = |y, m, day| S::lit(mv_catalog::Value::Date(days_from_date(y, m, day)));
    let view = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::cmp(S::col(cr(0, 10)), CmpOp::Ge, d(1994, 1, 1)),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
            NamedExpr::new(S::col(cr(0, 10)), "l_shipdate"),
        ],
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::and(vec![
            BoolExpr::cmp(S::col(cr(0, 10)), CmpOp::Ge, d(1995, 6, 1)),
            BoolExpr::cmp(S::col(cr(0, 10)), CmpOp::Lt, d(1996, 6, 1)),
        ]),
        vec![NamedExpr::new(S::col(cr(0, 0)), "l_orderkey")],
    );
    assert_eq!(check_pair(view, query, 79), 1);
}

/// Scalar-aggregate query (empty GROUP BY) from a grouped view: full
/// roll-up including the zero-count edge when compensation empties it.
#[test]
fn scalar_rollup_with_empty_compensation_window() {
    let (db, t) = generate_tpch(&TpchScale::tiny(), 80);
    let view = ViewDef::new(
        "per_cust",
        SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
            vec![
                NamedAgg::new(AggFunc::CountStar, "cnt"),
                NamedAgg::new(AggFunc::Sum(S::col(cr(0, 3))), "total"),
            ],
        ),
    );
    let engine = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
    let store = register_views(&engine, &db, vec![view]);
    // Compensating window selects NO customers: count must be 0, not NULL.
    let query = SpjgExpr::aggregate(
        vec![t.orders],
        BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Lt, S::lit(-5i64)),
        vec![],
        vec![
            NamedAgg::new(AggFunc::CountStar, "n"),
            NamedAgg::new(AggFunc::Sum(S::col(cr(0, 3))), "total"),
        ],
    );
    let subs = sound_substitutes(&engine, &db, &store, &query);
    assert_eq!(subs.len(), 1);
    // The substitute's rows equal these, the oracle checked.
    assert_eq!(
        execute_spjg(&db, &query),
        vec![vec![mv_catalog::Value::Int(0), mv_catalog::Value::Null]]
    );
}

/// An aggregate view's count column answers a count-only query directly
/// (projection, no re-aggregation) when the grouping lists coincide.
#[test]
fn equal_grouping_projects_count_directly() {
    let (db, t) = generate_tpch(&TpchScale::tiny(), 81);
    let view = ViewDef::new(
        "per_cust",
        SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
            vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
        ),
    );
    let engine = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
    let store = register_views(&engine, &db, vec![view]);
    let query = SpjgExpr::aggregate(
        vec![t.orders],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
        vec![NamedAgg::new(AggFunc::CountStar, "n")],
    );
    let subs = sound_substitutes(&engine, &db, &store, &query);
    assert_eq!(subs.len(), 1);
    assert!(
        matches!(subs[0].1.output, OutputList::Spj(_)),
        "same grouping ⇒ plain projection"
    );
}

/// Self-joins end to end: both the occurrence-mapping in the matcher and
/// the executor handle repeated base tables.
#[test]
fn self_join_substitute_executes_correctly() {
    let (db, t) = generate_tpch(&TpchScale::tiny(), 82);
    // Pairs of nations in the same region.
    let pred = BoolExpr::col_eq(cr(0, 2), cr(1, 2));
    let view = ViewDef::new(
        "nation_pairs",
        SpjgExpr::spj(
            vec![t.nation, t.nation],
            pred.clone(),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "a_key"),
                NamedExpr::new(S::col(cr(1, 0)), "b_key"),
                NamedExpr::new(S::col(cr(0, 1)), "a_name"),
                NamedExpr::new(S::col(cr(1, 1)), "b_name"),
            ],
        ),
    );
    let engine = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
    let store = register_views(&engine, &db, vec![view]);
    let query = SpjgExpr::spj(
        vec![t.nation, t.nation],
        BoolExpr::and(vec![
            pred,
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Lt, S::lit(5i64)),
        ]),
        vec![
            NamedExpr::new(S::col(cr(0, 1)), "a_name"),
            NamedExpr::new(S::col(cr(1, 1)), "b_name"),
        ],
    );
    let subs = sound_substitutes(&engine, &db, &store, &query);
    assert_eq!(subs.len(), 1);
    assert_eq!(
        store.rows(subs[0].0).len(),
        125,
        "25 nations over 5 regions: 5 * 25 pairs"
    );
    assert!(!execute_spjg(&db, &query).is_empty());
}

/// A 12-fold self-join has 12! ≈ 4.8e8 occurrence bijections. The matcher
/// tries the first `MAX_TABLE_MAPPINGS` of them and must not enumerate the
/// rest on the way (materializing them takes tens of gigabytes): the view
/// still matches itself, because the identity bijection comes first.
#[test]
fn twelve_fold_self_join_matches_itself() {
    const K: u32 = 12;
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    // region ⋈ … ⋈ region chained on r_regionkey.
    let chain = BoolExpr::and(
        (1..K)
            .map(|i| BoolExpr::col_eq(cr(i - 1, 0), cr(i, 0)))
            .collect(),
    );
    let block = SpjgExpr::spj(
        vec![t.region; K as usize],
        chain,
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "key"),
            NamedExpr::new(S::col(cr(K - 1, 1)), "name"),
        ],
    );
    assert_eq!(check_pair(block.clone(), block, 83), 1);
}
