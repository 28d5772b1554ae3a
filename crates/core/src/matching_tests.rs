//! Unit tests for the matcher, centered on the paper's worked examples.

use crate::descriptor::PreparedView;
use crate::matching::{match_view_prepared, MatchConfig, PreparedQuery};
use crate::summary::ExprSummary;
use mv_catalog::tpch::{tpch_catalog, TpchTables};
use mv_catalog::{Catalog, Value};
use mv_expr::{BinOp, BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::{AggFunc, NamedAgg, NamedExpr, OutputList, SpjgExpr, Substitute, ViewDef, ViewId};

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

fn try_match_pair(
    catalog: &Catalog,
    config: &MatchConfig,
    query: &SpjgExpr,
    view: &SpjgExpr,
) -> Option<Substitute> {
    let qsum = ExprSummary::analyze(query);
    let pq = PreparedQuery::new(query, &qsum);
    let vdef = ViewDef::new("v", view.clone());
    let pv = PreparedView::prepare(catalog, config, view);
    match_view_prepared(catalog, config, &pq, ViewId(0), &vdef, &pv)
}

fn out(cols: &[(u32, u32, &str)]) -> Vec<NamedExpr> {
    cols.iter()
        .map(|&(o, c, n)| NamedExpr::new(S::col(cr(o, c)), n))
        .collect()
}

// lineitem column indices used below:
//   0 l_orderkey, 1 l_partkey, 4 l_quantity, 5 l_extendedprice,
//   10 l_shipdate, 11 l_commitdate
// orders: 0 o_orderkey, 1 o_custkey, 4 o_orderdate
// part:   0 p_partkey, 1 p_name, 5 p_size

/// Paper Example 2 setup. Query and view over lineitem(0), orders(1),
/// part(2).
fn example2(t: &TpchTables) -> (SpjgExpr, SpjgExpr) {
    // View: l_orderkey = o_orderkey, l_partkey = p_partkey,
    //       p_partkey > 150, 50 < o_custkey < 500, p_name like '%abc%'.
    let view_pred = BoolExpr::and(vec![
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        BoolExpr::col_eq(cr(0, 1), cr(2, 0)),
        BoolExpr::cmp(S::col(cr(2, 0)), CmpOp::Gt, S::lit(150i64)),
        BoolExpr::cmp(S::col(cr(1, 1)), CmpOp::Gt, S::lit(50i64)),
        BoolExpr::cmp(S::col(cr(1, 1)), CmpOp::Lt, S::lit(500i64)),
        BoolExpr::Like {
            expr: S::col(cr(2, 1)),
            pattern: "%abc%".into(),
            negated: false,
        },
    ]);
    // The view outputs everything the compensations and the query need.
    let view = SpjgExpr::spj(
        vec![t.lineitem, t.orders, t.part],
        view_pred,
        out(&[
            (0, 0, "l_orderkey"),
            (0, 1, "l_partkey"),
            (1, 1, "o_custkey"),
            (1, 4, "o_orderdate"),
            (0, 10, "l_shipdate"),
            (0, 4, "l_quantity"),
            (0, 5, "l_extendedprice"),
        ]),
    );
    // Query: same joins, plus o_orderdate = l_shipdate,
    // 150 < {p,l}_partkey < 160, o_custkey = 123, p_name like '%abc%',
    // l_quantity * l_extendedprice > 100.
    let query_pred = BoolExpr::and(vec![
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        BoolExpr::col_eq(cr(0, 1), cr(2, 0)),
        BoolExpr::col_eq(cr(1, 4), cr(0, 10)),
        BoolExpr::cmp(S::col(cr(2, 0)), CmpOp::Gt, S::lit(150i64)),
        BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Lt, S::lit(160i64)),
        BoolExpr::cmp(S::col(cr(1, 1)), CmpOp::Eq, S::lit(123i64)),
        BoolExpr::Like {
            expr: S::col(cr(2, 1)),
            pattern: "%abc%".into(),
            negated: false,
        },
        BoolExpr::cmp(
            S::col(cr(0, 4)).binary(BinOp::Mul, S::col(cr(0, 5))),
            CmpOp::Gt,
            S::lit(100i64),
        ),
    ]);
    let query = SpjgExpr::spj(
        vec![t.lineitem, t.orders, t.part],
        query_pred,
        out(&[(0, 0, "l_orderkey"), (0, 1, "l_partkey")]),
    );
    (query, view)
}

#[test]
fn example2_matches_with_expected_compensations() {
    let (cat, t) = tpch_catalog();
    let (query, view) = example2(&t);
    let sub =
        try_match_pair(&cat, &MatchConfig::default(), &query, &view).expect("Example 2 must match");
    // Expected compensations: o_orderdate = l_shipdate, partkey < 160,
    // o_custkey = 123, l_quantity * l_extendedprice > 100. The LIKE and
    // the lower partkey bound are already enforced by the view.
    assert_eq!(sub.predicates.len(), 4, "{:#?}", sub.predicates);
    let texts: Vec<String> = sub.predicates.iter().map(|p| p.to_string()).collect();
    // Equality between the view's o_orderdate (pos 3) and l_shipdate (pos 4).
    assert!(
        texts
            .iter()
            .any(|s| s.contains("t0.c3 = t0.c4") || s.contains("t0.c4 = t0.c3")),
        "{texts:?}"
    );
    // Upper bound on partkey: view outputs l_partkey at position 1.
    assert!(texts.iter().any(|s| s.contains("t0.c1 < 160")), "{texts:?}");
    // Point restriction on o_custkey (pos 2).
    assert!(texts.iter().any(|s| s.contains("t0.c2 = 123")), "{texts:?}");
    // Residual compensation over l_quantity (pos 5) * l_extendedprice (6).
    assert!(
        texts
            .iter()
            .any(|s| s.contains("c5") && s.contains("c6") && s.contains("> 100")),
        "{texts:?}"
    );
    // Output mapping: l_orderkey -> pos 0, l_partkey -> pos 1.
    match &sub.output {
        OutputList::Spj(items) => {
            assert_eq!(items[0].expr, S::col(cr(0, 0)));
            assert_eq!(items[1].expr, S::col(cr(0, 1)));
        }
        other => panic!("expected SPJ output, got {other:?}"),
    }
}

#[test]
fn example2_rejected_when_view_range_too_narrow() {
    let (cat, t) = tpch_catalog();
    let (query, mut view) = example2(&t);
    // Narrow the view's o_custkey range so it no longer contains the
    // query's point 123: change (50, 500) to (200, 500).
    for conj in &mut view.conjuncts {
        if let mv_expr::Conjunct::Range {
            op: CmpOp::Gt,
            value,
            ..
        } = conj
        {
            if *value == Value::Int(50) {
                *value = Value::Int(200);
            }
        }
    }
    assert!(try_match_pair(&cat, &MatchConfig::default(), &query, &view).is_none());
}

#[test]
fn view_with_extra_residual_rejected() {
    let (cat, t) = tpch_catalog();
    let (query, mut view) = example2(&t);
    // Add a residual predicate to the view that the query lacks: the view
    // may now be missing rows the query needs.
    view.conjuncts
        .push(mv_expr::Conjunct::Residual(BoolExpr::Like {
            expr: S::col(cr(2, 1)),
            pattern: "%xyz%".into(),
            negated: false,
        }));
    assert!(try_match_pair(&cat, &MatchConfig::default(), &query, &view).is_none());
}

#[test]
fn view_with_conflicting_equivalence_rejected() {
    let (cat, t) = tpch_catalog();
    // View equates l_shipdate = l_commitdate; query does not: the view
    // fails the equijoin subsumption test.
    let view = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::col_eq(cr(0, 10), cr(0, 11)),
        out(&[(0, 0, "l_orderkey")]),
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        out(&[(0, 0, "l_orderkey")]),
    );
    assert!(try_match_pair(&cat, &MatchConfig::default(), &query, &view).is_none());
    // The other direction works, with a compensating equality predicate —
    // provided the view outputs both columns.
    let view = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        out(&[
            (0, 0, "l_orderkey"),
            (0, 10, "l_shipdate"),
            (0, 11, "l_commitdate"),
        ]),
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::col_eq(cr(0, 10), cr(0, 11)),
        out(&[(0, 0, "l_orderkey")]),
    );
    let sub = try_match_pair(&cat, &MatchConfig::default(), &query, &view).unwrap();
    assert_eq!(sub.predicates.len(), 1);
    assert_eq!(sub.predicates[0].to_string(), "t0.c1 = t0.c2");
}

/// Example 3: a query over lineitem answered by a view that additionally
/// joins orders and customer through cardinality-preserving joins.
fn example3(t: &TpchTables) -> (SpjgExpr, SpjgExpr) {
    // View v3: lineitem(0), orders(1), customer(2);
    //   l_orderkey = o_orderkey AND o_custkey = c_custkey AND o_orderkey >= 500
    let view_pred = BoolExpr::and(vec![
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        BoolExpr::col_eq(cr(1, 1), cr(2, 0)),
        BoolExpr::cmp(S::col(cr(1, 0)), CmpOp::Ge, S::lit(500i64)),
    ]);
    let view = SpjgExpr::spj(
        vec![t.lineitem, t.orders, t.customer],
        view_pred,
        out(&[
            (2, 0, "c_custkey"),
            (2, 1, "c_name"),
            (0, 0, "l_orderkey"),
            (0, 1, "l_partkey"),
            (0, 4, "l_quantity"),
        ]),
    );
    // Query: lineitem only, l_orderkey between 1000 and 1500,
    //        l_shipdate = l_commitdate.
    let query_pred = BoolExpr::and(vec![
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(1000i64)),
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Le, S::lit(1500i64)),
        BoolExpr::col_eq(cr(0, 10), cr(0, 11)),
    ]);
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        query_pred,
        out(&[
            (0, 0, "l_orderkey"),
            (0, 1, "l_partkey"),
            (0, 4, "l_quantity"),
        ]),
    );
    (query, view)
}

#[test]
fn example3_rejected_because_shipdate_not_in_output() {
    // The paper's Example 3 concludes that although the extra tables are
    // eliminated and the subsumption tests pass, the compensating
    // predicate l_shipdate = l_commitdate cannot be applied because the
    // view outputs neither column — so the view is rejected.
    let (cat, t) = tpch_catalog();
    let (query, view) = example3(&t);
    assert!(try_match_pair(&cat, &MatchConfig::default(), &query, &view).is_none());
}

#[test]
fn example3_matches_once_dates_are_output() {
    let (cat, t) = tpch_catalog();
    let (query, mut view) = example3(&t);
    if let OutputList::Spj(items) = &mut view.output {
        items.push(NamedExpr::new(S::col(cr(0, 10)), "l_shipdate"));
        items.push(NamedExpr::new(S::col(cr(0, 11)), "l_commitdate"));
    }
    let sub = try_match_pair(&cat, &MatchConfig::default(), &query, &view)
        .expect("extra tables eliminated through FK joins");
    let texts: Vec<String> = sub.predicates.iter().map(|p| p.to_string()).collect();
    // Compensations: l_orderkey in [1000, 1500] (the view only guarantees
    // >= 500) and the equality of the two dates.
    assert!(texts.iter().any(|s| s.contains(">= 1000")), "{texts:?}");
    assert!(texts.iter().any(|s| s.contains("<= 1500")), "{texts:?}");
    assert!(
        texts.iter().any(|s| s.contains("t0.c5 = t0.c6")),
        "{texts:?}"
    );
}

#[test]
fn extra_table_without_fk_join_rejected() {
    let (cat, t) = tpch_catalog();
    // View joins lineitem to orders on a non-key pair (no FK edge):
    // l_linenumber = o_shippriority is no cardinality-preserving join.
    let view = SpjgExpr::spj(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 3), cr(1, 7)),
        out(&[(0, 0, "l_orderkey"), (0, 1, "l_partkey")]),
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        out(&[(0, 0, "l_orderkey")]),
    );
    assert!(try_match_pair(&cat, &MatchConfig::default(), &query, &view).is_none());
}

#[test]
fn view_with_filtered_extra_table_rejected() {
    let (cat, t) = tpch_catalog();
    // The view restricts the extra orders table (o_custkey < 100): the
    // join no longer preserves lineitem's cardinality *and* the range
    // subsumption test fails for the query's unconstrained range.
    let view_pred = BoolExpr::and(vec![
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        BoolExpr::cmp(S::col(cr(1, 1)), CmpOp::Lt, S::lit(100i64)),
    ]);
    let view = SpjgExpr::spj(
        vec![t.lineitem, t.orders],
        view_pred,
        out(&[(0, 0, "l_orderkey"), (0, 1, "l_partkey")]),
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        out(&[(0, 0, "l_orderkey"), (0, 1, "l_partkey")]),
    );
    assert!(try_match_pair(&cat, &MatchConfig::default(), &query, &view).is_none());
}

#[test]
fn aggregation_query_from_aggregation_view_with_rollup() {
    let (cat, t) = tpch_catalog();
    // View v4 (Example 4): SELECT o_custkey, count_big(*) cnt,
    //   sum(l_quantity * l_extendedprice) revenue
    // FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_custkey
    let revenue = S::col(cr(0, 4)).binary(BinOp::Mul, S::col(cr(0, 5)));
    let view = SpjgExpr::aggregate(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        vec![NamedExpr::new(S::col(cr(1, 1)), "o_custkey")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(revenue.clone()), "revenue"),
        ],
    );
    // Inner query of Example 4 (after the optimizer's pre-aggregation):
    // SELECT o_custkey, sum(l_quantity*l_extendedprice) FROM lineitem,
    // orders WHERE l_orderkey = o_orderkey GROUP BY o_custkey
    let query = SpjgExpr::aggregate(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        vec![NamedExpr::new(S::col(cr(1, 1)), "o_custkey")],
        vec![NamedAgg::new(AggFunc::Sum(revenue.clone()), "rev")],
    );
    let sub = try_match_pair(&cat, &MatchConfig::default(), &query, &view)
        .expect("Example 4 inner query matches v4");
    assert!(sub.predicates.is_empty());
    // Same grouping: no re-aggregation, plain projection of custkey (0)
    // and revenue (2).
    match &sub.output {
        OutputList::Spj(items) => {
            assert_eq!(items.len(), 2);
            assert_eq!(items[0].expr, S::col(cr(0, 0)));
            assert_eq!(items[1].expr, S::col(cr(0, 2)));
        }
        other => panic!("expected projection, got {other:?}"),
    }

    // Scalar roll-up: total revenue over everything needs re-aggregation.
    let query = SpjgExpr::aggregate(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        vec![],
        vec![
            NamedAgg::new(AggFunc::Sum(revenue), "rev"),
            NamedAgg::new(AggFunc::CountStar, "n"),
        ],
    );
    let sub = try_match_pair(&cat, &MatchConfig::default(), &query, &view).unwrap();
    match &sub.output {
        OutputList::Aggregate {
            group_by,
            aggregates,
        } => {
            assert!(group_by.is_empty());
            // sum(revenue) -> SUM(view col 2); count(*) -> SUM(view cnt col 1).
            assert_eq!(aggregates[0].func, AggFunc::Sum(S::col(cr(0, 2))));
            assert_eq!(aggregates[1].func, AggFunc::SumZero(S::col(cr(0, 1))));
        }
        other => panic!("expected re-aggregation, got {other:?}"),
    }
}

#[test]
fn spj_query_rejects_aggregate_view() {
    let (cat, t) = tpch_catalog();
    let view = SpjgExpr::aggregate(
        vec![t.orders],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
        vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
    );
    let query = SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::Literal(true),
        out(&[(0, 1, "o_custkey")]),
    );
    assert!(try_match_pair(&cat, &MatchConfig::default(), &query, &view).is_none());
}

#[test]
fn aggregation_query_from_spj_view_groups_the_view() {
    let (cat, t) = tpch_catalog();
    let view = SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(0i64)),
        out(&[
            (0, 1, "o_custkey"),
            (0, 3, "o_totalprice"),
            (0, 0, "o_orderkey"),
        ]),
    );
    let query = SpjgExpr::aggregate(
        vec![t.orders],
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(100i64)),
        vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(S::col(cr(0, 3))), "total"),
        ],
    );
    let sub = try_match_pair(&cat, &MatchConfig::default(), &query, &view).unwrap();
    // Compensation narrows o_orderkey and the view is grouped directly.
    assert_eq!(sub.predicates.len(), 1);
    match &sub.output {
        OutputList::Aggregate {
            group_by,
            aggregates,
        } => {
            assert_eq!(group_by[0].expr, S::col(cr(0, 0)));
            assert_eq!(aggregates[0].func, AggFunc::CountStar);
            assert_eq!(aggregates[1].func, AggFunc::Sum(S::col(cr(0, 1))));
        }
        other => panic!("expected grouping, got {other:?}"),
    }
}

#[test]
fn query_grouping_not_subset_of_view_grouping_rejected() {
    let (cat, t) = tpch_catalog();
    // View groups by o_custkey; query groups by o_orderkey: not a subset.
    let view = SpjgExpr::aggregate(
        vec![t.orders],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
        vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
    );
    let query = SpjgExpr::aggregate(
        vec![t.orders],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
        vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
    );
    assert!(try_match_pair(&cat, &MatchConfig::default(), &query, &view).is_none());
}

#[test]
fn sum_without_matching_view_aggregate_rejected() {
    let (cat, t) = tpch_catalog();
    let view = SpjgExpr::aggregate(
        vec![t.orders],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
        vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
    );
    // Query wants SUM(o_totalprice), which the view never aggregated.
    let query = SpjgExpr::aggregate(
        vec![t.orders],
        BoolExpr::Literal(true),
        vec![],
        vec![NamedAgg::new(AggFunc::Sum(S::col(cr(0, 3))), "total")],
    );
    assert!(try_match_pair(&cat, &MatchConfig::default(), &query, &view).is_none());
}

#[test]
fn output_expression_served_by_view_expression_column() {
    let (cat, t) = tpch_catalog();
    // View precomputes l_quantity * l_extendedprice as a column.
    let product = S::col(cr(0, 4)).binary(BinOp::Mul, S::col(cr(0, 5)));
    let view = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
            NamedExpr::new(product.clone(), "gross"),
        ],
    );
    // Query asks for the same expression: served by the view column even
    // though l_quantity and l_extendedprice are not output.
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(product, "gross")],
    );
    let sub = try_match_pair(&cat, &MatchConfig::default(), &query, &view).unwrap();
    match &sub.output {
        OutputList::Spj(items) => assert_eq!(items[0].expr, S::col(cr(0, 1))),
        other => panic!("{other:?}"),
    }
    // A *different* expression over the same columns is rejected (the
    // source columns are not available either).
    let other = S::col(cr(0, 4)).binary(BinOp::Add, S::col(cr(0, 5)));
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(other, "x")],
    );
    assert!(try_match_pair(&cat, &MatchConfig::default(), &query, &view).is_none());
}

#[test]
fn output_expression_recomputed_from_columns() {
    let (cat, t) = tpch_catalog();
    let view = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        out(&[(0, 4, "l_quantity"), (0, 5, "l_extendedprice")]),
    );
    let product = S::col(cr(0, 4)).binary(BinOp::Mul, S::col(cr(0, 5)));
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(product, "gross")],
    );
    let sub = try_match_pair(&cat, &MatchConfig::default(), &query, &view).unwrap();
    match &sub.output {
        OutputList::Spj(items) => {
            // Recomputed over view columns 0 and 1.
            assert_eq!(
                items[0].expr,
                S::col(cr(0, 0)).binary(BinOp::Mul, S::col(cr(0, 1)))
            );
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn output_column_rerouted_through_equivalence() {
    let (cat, t) = tpch_catalog();
    // View outputs o_orderkey but not l_orderkey; the query wants
    // l_orderkey, which is equivalent through the join predicate.
    let view = SpjgExpr::spj(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        out(&[(1, 0, "o_orderkey"), (0, 1, "l_partkey")]),
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        out(&[(0, 0, "l_orderkey")]),
    );
    let sub = try_match_pair(&cat, &MatchConfig::default(), &query, &view).unwrap();
    match &sub.output {
        OutputList::Spj(items) => assert_eq!(items[0].expr, S::col(cr(0, 0))),
        other => panic!("{other:?}"),
    }
}

#[test]
fn missing_source_table_rejected() {
    let (cat, t) = tpch_catalog();
    let view = SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::Literal(true),
        out(&[(0, 0, "o_orderkey")]),
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        out(&[(0, 0, "l_orderkey")]),
    );
    assert!(try_match_pair(&cat, &MatchConfig::default(), &query, &view).is_none());
}

#[test]
fn nullable_fk_extension_example5() {
    use mv_catalog::schema::{ForeignKey, TableBuilder};
    use mv_catalog::{ColumnId, ColumnType};
    // T(a, f nullable) with FK f -> S(k unique, s).
    let mut cat = mv_catalog::Catalog::new();
    let tid = cat.add_table(
        TableBuilder::new("t")
            .col("a", ColumnType::Int)
            .nullable_col("f", ColumnType::Int)
            .primary_key(&["a"])
            .build(),
    );
    let sid = cat.add_table(
        TableBuilder::new("s")
            .col("k", ColumnType::Int)
            .col("s", ColumnType::Int)
            .primary_key(&["k"])
            .build(),
    );
    cat.add_foreign_key(ForeignKey {
        name: "t_f".into(),
        from_table: tid,
        from_columns: vec![ColumnId(1)],
        to_table: sid,
        to_columns: vec![ColumnId(0)],
    });
    // View: SELECT t.a, t.f FROM t, s WHERE t.f = s.k.
    let view = SpjgExpr::spj(
        vec![tid, sid],
        BoolExpr::col_eq(cr(0, 1), cr(1, 0)),
        out(&[(0, 0, "a"), (0, 1, "f")]),
    );
    // Query: SELECT a FROM t WHERE f > 50 (null-rejecting on f).
    let query = SpjgExpr::spj(
        vec![tid],
        BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Gt, S::lit(50i64)),
        out(&[(0, 0, "a")]),
    );
    // Strict rule (the paper's prototype): rejected.
    assert!(try_match_pair(&cat, &MatchConfig::default(), &query, &view).is_none());
    // With the extension: accepted, compensating with f > 50.
    let config = MatchConfig {
        null_rejecting_fk: true,
        ..MatchConfig::default()
    };
    let sub = try_match_pair(&cat, &config, &query, &view).expect("Example 5 extension");
    assert_eq!(sub.predicates.len(), 1);
    assert!(sub.predicates[0].to_string().contains("> 50"));
    // Without a null-rejecting predicate in the query, still rejected.
    let query = SpjgExpr::spj(vec![tid], BoolExpr::Literal(true), out(&[(0, 0, "a")]));
    assert!(try_match_pair(&cat, &config, &query, &view).is_none());
}

#[test]
fn self_join_occurrence_mapping() {
    let (cat, t) = tpch_catalog();
    // View: nation n0, nation n1 joined through region keys, outputs both
    // names. Query: the same self-join. The matcher must find a valid
    // occurrence bijection.
    let pred = BoolExpr::col_eq(cr(0, 2), cr(1, 2)); // n0.regionkey = n1.regionkey
    let view = SpjgExpr::spj(
        vec![t.nation, t.nation],
        pred.clone(),
        out(&[(0, 1, "name_a"), (1, 1, "name_b"), (0, 0, "key_a")]),
    );
    let query = SpjgExpr::spj(
        vec![t.nation, t.nation],
        pred,
        out(&[(0, 0, "n_nationkey")]),
    );
    let sub = try_match_pair(&cat, &MatchConfig::default(), &query, &view);
    assert!(sub.is_some());
}

#[test]
fn constant_output_copied() {
    let (cat, t) = tpch_catalog();
    let view = SpjgExpr::spj(
        vec![t.region],
        BoolExpr::Literal(true),
        out(&[(0, 0, "r_regionkey")]),
    );
    let query = SpjgExpr::spj(
        vec![t.region],
        BoolExpr::Literal(true),
        vec![
            NamedExpr::new(S::lit(42i64), "answer"),
            NamedExpr::new(S::col(cr(0, 0)), "r_regionkey"),
        ],
    );
    let sub = try_match_pair(&cat, &MatchConfig::default(), &query, &view).unwrap();
    match &sub.output {
        OutputList::Spj(items) => assert_eq!(items[0].expr, S::lit(42i64)),
        other => panic!("{other:?}"),
    }
}

#[test]
fn identical_expressions_match_exactly() {
    let (cat, t) = tpch_catalog();
    let e = SpjgExpr::spj(
        vec![t.part],
        BoolExpr::cmp(S::col(cr(0, 5)), CmpOp::Lt, S::lit(10i64)),
        out(&[(0, 0, "p_partkey"), (0, 5, "p_size")]),
    );
    let sub = try_match_pair(&cat, &MatchConfig::default(), &e, &e).unwrap();
    assert!(sub.is_filter_free());
}
