//! Check-constraint folding (section 3.1.2): "The key observation is that
//! check constraints on the tables of a query can be added to the
//! where-clause without changing the query result."

use mv_catalog::tpch::tpch_catalog;
use mv_catalog::TableId;
use mv_core::{MatchConfig, MatchingEngine};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::{NamedExpr, SpjgExpr, ViewDef};

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

/// View: orders with o_totalprice >= 0 (redundant under the constraint).
fn view_with_redundant_range() -> (mv_catalog::Catalog, mv_catalog::tpch::TpchTables, ViewDef) {
    let (cat, t) = tpch_catalog();
    let view = ViewDef::new(
        "nonneg_orders",
        SpjgExpr::spj(
            vec![t.orders],
            BoolExpr::cmp(S::col(cr(0, 3)), CmpOp::Ge, S::lit(0i64)),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "o_orderkey"),
                NamedExpr::new(S::col(cr(0, 3)), "o_totalprice"),
            ],
        ),
    );
    (cat, t, view)
}

fn plain_query(t: &mv_catalog::tpch::TpchTables) -> SpjgExpr {
    // No predicate at all: without the check constraint, the view's range
    // o_totalprice >= 0 fails the range subsumption test.
    SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
    )
}

#[test]
fn check_constraint_unlocks_redundant_view_range() {
    let (cat, t, view) = view_with_redundant_range();

    // Without the constraint: rejected.
    let engine = MatchingEngine::new(cat.clone(), MatchConfig::default());
    engine.add_view(view.clone()).unwrap();
    assert!(engine.find_substitutes(&plain_query(&t)).is_empty());

    // With CHECK (o_totalprice >= 0): accepted with no compensation.
    let engine = MatchingEngine::new(cat, MatchConfig::default());
    engine
        .add_check_constraint(
            t.orders,
            BoolExpr::cmp(S::col(cr(0, 3)), CmpOp::Ge, S::lit(0i64)),
        )
        .unwrap();
    engine.add_view(view).unwrap();
    let subs = engine.find_substitutes(&plain_query(&t));
    assert_eq!(subs.len(), 1);
    assert!(
        subs[0].1.predicates.is_empty(),
        "{:?}",
        subs[0].1.predicates
    );
}

#[test]
fn check_residual_satisfies_view_residual_without_compensation() {
    let (cat, t) = tpch_catalog();
    // View keeps only 'O' status orders; a CHECK pins every order to 'O'.
    let like_o = BoolExpr::Like {
        expr: S::col(cr(0, 2)),
        pattern: "O".into(),
        negated: false,
    };
    let view = ViewDef::new(
        "open_orders",
        SpjgExpr::spj(
            vec![t.orders],
            like_o.clone(),
            vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
        ),
    );
    let query = SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
    );
    // Without the constraint: the view's residual is not in the query.
    let engine = MatchingEngine::new(cat.clone(), MatchConfig::default());
    engine.add_view(view.clone()).unwrap();
    assert!(engine.find_substitutes(&query).is_empty());
    // With the constraint: matched, and crucially the check-derived
    // residual is NOT emitted as a compensating predicate (it could not
    // be: o_orderstatus is not a view output).
    let engine = MatchingEngine::new(cat, MatchConfig::default());
    engine.add_check_constraint(t.orders, like_o).unwrap();
    engine.add_view(view).unwrap();
    let subs = engine.find_substitutes(&query);
    assert_eq!(subs.len(), 1);
    assert!(subs[0].1.predicates.is_empty());
}

#[test]
fn genuine_residuals_still_compensated_alongside_checks() {
    let (cat, t) = tpch_catalog();
    let view = ViewDef::new(
        "plain",
        SpjgExpr::spj(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "o_orderkey"),
                NamedExpr::new(S::col(cr(0, 8)), "o_comment"),
            ],
        ),
    );
    let query = SpjgExpr::spj(
        vec![t.orders],
        BoolExpr::Like {
            expr: S::col(cr(0, 8)),
            pattern: "%pending%".into(),
            negated: false,
        },
        vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
    );
    let engine = MatchingEngine::new(cat, MatchConfig::default());
    engine
        .add_check_constraint(
            t.orders,
            BoolExpr::cmp(S::col(cr(0, 3)), CmpOp::Ge, S::lit(0i64)),
        )
        .unwrap();
    engine.add_view(view).unwrap();
    let subs = engine.find_substitutes(&query);
    assert_eq!(subs.len(), 1);
    // The genuine LIKE residual is compensated; the check range is not.
    assert_eq!(subs[0].1.predicates.len(), 1);
    assert!(subs[0].1.predicates[0].to_string().contains("pending"));
}

#[test]
fn invalid_check_constraint_rejected() {
    let (cat, t) = tpch_catalog();
    let engine = MatchingEngine::new(cat, MatchConfig::default());
    // Wrong occurrence.
    assert!(engine
        .add_check_constraint(t.orders, BoolExpr::col_eq(cr(1, 0), cr(0, 0)))
        .is_err());
    // Column out of range.
    assert!(engine
        .add_check_constraint(
            t.orders,
            BoolExpr::cmp(S::col(cr(0, 99)), CmpOp::Ge, S::lit(0i64))
        )
        .is_err());
    // A table id the catalog does not hold is an error naming the id, not
    // a panic, and publishes nothing.
    let unknown = TableId(engine.catalog().table_count() as u32);
    let before = engine.snapshot_epoch();
    let err = engine
        .add_check_constraint(
            unknown,
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(0i64)),
        )
        .expect_err("unknown table id");
    assert!(err.contains(&unknown.0.to_string()), "{err}");
    assert_eq!(engine.snapshot_epoch(), before);
}
