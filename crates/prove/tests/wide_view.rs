//! A pair over more tables than any generated workload joins: the plan
//! programs' per-occurrence tables spill to the heap past 16 slots, so the
//! prover runs both sides of a 17-table chain join and returns an outcome
//! (it used to panic on the 17th occurrence, and with it — through the
//! debug-build prove oracle — `find_substitutes`). `mv-maintain`'s
//! `tests/wide_view.rs` is the maintainer's half.

use mv_catalog::schema::TableBuilder;
use mv_catalog::{Catalog, ColumnType, TableId};
use mv_core::{MatchConfig, MatchingEngine};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::{NamedExpr, SpjgExpr, ViewDef};
use mv_prove::{prove, ProveConfig, ProveCtx, ProveOutcome};

const TABLES: u32 = 17;

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

/// `t0 … t16`, each `(pk, nxt)`; the chain joins `t_i.nxt = t_{i+1}.pk`.
fn schema() -> (Catalog, Vec<TableId>) {
    let mut cat = Catalog::new();
    let tables = (0..TABLES)
        .map(|i| {
            cat.add_table(
                TableBuilder::new(&format!("t{i}"))
                    .col("pk", ColumnType::Int)
                    .col("nxt", ColumnType::Int)
                    .primary_key(&["pk"])
                    .build(),
            )
        })
        .collect();
    (cat, tables)
}

fn chain(tables: &[TableId], extra: Option<BoolExpr>) -> SpjgExpr {
    let mut conjuncts: Vec<BoolExpr> = (1..TABLES)
        .map(|i| BoolExpr::col_eq(cr(i - 1, 1), cr(i, 0)))
        .collect();
    conjuncts.extend(extra);
    SpjgExpr::spj(
        tables.to_vec(),
        BoolExpr::and(conjuncts),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "head"),
            NamedExpr::new(S::col(cr(TABLES - 1, 1)), "tail"),
        ],
    )
}

#[test]
fn seventeen_table_pair_gets_an_outcome() {
    let (cat, tables) = schema();
    let engine = MatchingEngine::new(cat.clone(), MatchConfig::default());
    let def = ViewDef::new("chain17", chain(&tables, None));
    engine.add_view(def.clone()).expect("view registers");
    // The matcher serves the view (debug builds prove the substitute on
    // the way), and the prover runs both 17-occurrence programs.
    let query = chain(
        &tables,
        Some(BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(1i64))),
    );
    let subs = engine.find_substitutes(&query);
    assert_eq!(subs.len(), 1);
    let checks = engine.check_constraints();
    let outcome = prove(
        &ProveCtx::new(&cat, &checks),
        &query,
        &def.expr,
        &subs[0].1,
        &ProveConfig {
            max_databases: 300,
            symbolic: false,
            ..ProveConfig::default()
        },
    );
    assert!(
        matches!(outcome, ProveOutcome::BudgetExhausted { databases: 300 }),
        "{outcome:?}"
    );
}
