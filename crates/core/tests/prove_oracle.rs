//! The debug-build prove oracle: `find_substitutes` hands every
//! substitute it is about to return to the `mv-prove` bounded equivalence
//! checker, at most 2,000 databases per pair, and panics on a refutation
//! (MV301/MV302). The engine is sound, so the oracle must be invisible —
//! these tests run real matches through it, and prove each substitute
//! again at the oracle's budget so that an inconclusive outcome, which
//! the oracle lets pass, cannot hide here. In release builds the hook
//! compiles out and the explicit proof remains.

use mv_catalog::tpch::tpch_catalog;
use mv_core::{MatchConfig, MatchingEngine};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::{AggFunc, NamedAgg, NamedExpr, SpjgExpr, ViewDef};
use mv_prove::{prove, ProveConfig, ProveCtx};

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

/// `query`'s one substitute, proved equivalent within the debug
/// oracle's budget of 2,000 databases.
fn assert_proved_at_oracle_budget(engine: &MatchingEngine, query: &SpjgExpr) {
    let subs = engine.find_substitutes(query);
    assert_eq!(subs.len(), 1);
    let (id, sub) = &subs[0];
    let checks = engine.check_constraints();
    let ctx = ProveCtx::new(engine.catalog(), &checks);
    let cfg = ProveConfig {
        max_databases: 2_000,
        ..ProveConfig::default()
    };
    let outcome = prove(&ctx, query, &engine.views().get(*id).expr, sub, &cfg);
    assert!(outcome.is_proved(), "{outcome:?}");
}

/// A range-compensated SPJ match runs through the oracle without
/// tripping it.
#[test]
fn oracle_accepts_range_compensation() {
    let (cat, t) = tpch_catalog();
    let engine = MatchingEngine::new(cat, MatchConfig::default());
    engine
        .add_view(ViewDef::new(
            "big_items",
            SpjgExpr::spj(
                vec![t.lineitem],
                BoolExpr::cmp(S::col(cr(0, 4)), CmpOp::Gt, S::lit(10i64)),
                vec![
                    NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
                    NamedExpr::new(S::col(cr(0, 4)), "l_quantity"),
                ],
            ),
        ))
        .unwrap();
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::cmp(S::col(cr(0, 4)), CmpOp::Gt, S::lit(30i64)),
        vec![NamedExpr::new(S::col(cr(0, 0)), "l_orderkey")],
    );
    assert_proved_at_oracle_budget(&engine, &query);
}

/// An aggregation-rollup match (the paper's Example 4 shape) takes the
/// enumerative path of the prover; still clean.
#[test]
fn oracle_accepts_aggregate_rollup() {
    let (cat, t) = tpch_catalog();
    let engine = MatchingEngine::new(cat, MatchConfig::default());
    engine
        .add_view(ViewDef::new(
            "rev_by_order",
            SpjgExpr::aggregate(
                vec![t.lineitem],
                BoolExpr::Literal(true),
                vec![NamedExpr::new(S::col(cr(0, 0)), "l_orderkey")],
                vec![
                    NamedAgg::new(AggFunc::CountStar, "cnt"),
                    NamedAgg::new(AggFunc::Sum(S::col(cr(0, 5))), "revenue"),
                ],
            ),
        ))
        .unwrap();
    let query = SpjgExpr::aggregate(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        vec![],
        vec![NamedAgg::new(AggFunc::Sum(S::col(cr(0, 5))), "revenue")],
    );
    assert_proved_at_oracle_budget(&engine, &query);
}
