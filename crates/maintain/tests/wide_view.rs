//! A view over more tables than any generated workload joins: the plan
//! programs' per-occurrence tables spill to the heap past 16 slots, so a
//! 17-table chain join registers with the engine and the maintainer and
//! survives a delta round with a clean audit (registration used to panic
//! on the 17th occurrence; `mv-prove`'s `tests/wide_view.rs` is the
//! prover's half).

use mv_catalog::schema::TableBuilder;
use mv_catalog::{Catalog, ColumnType, TableId, Value};
use mv_core::{MatchConfig, MatchingEngine};
use mv_data::{Database, Row};
use mv_expr::{BoolExpr, ColRef, ScalarExpr as S};
use mv_maintain::{MaintainStrategy, Maintainer, TableDelta};
use mv_plan::{NamedExpr, SpjgExpr, ViewDef};

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

fn chain(tables: &[TableId]) -> SpjgExpr {
    SpjgExpr::spj(
        tables.to_vec(),
        BoolExpr::and(
            (1..TABLES)
                .map(|i| BoolExpr::col_eq(cr(i - 1, 1), cr(i, 0)))
                .collect(),
        ),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "head"),
            NamedExpr::new(S::col(cr(TABLES - 1, 1)), "tail"),
        ],
    )
}

#[test]
fn seventeen_table_view_is_maintained() {
    let (cat, tables) = schema();
    let mut db = Database::new(cat.clone());
    for &t in &tables {
        db.load(
            t,
            (0..4)
                .map(|i| vec![Value::Int(i), Value::Int(i)])
                .collect::<Vec<Row>>(),
        );
    }
    let engine = MatchingEngine::new(cat.clone(), MatchConfig::default());
    let def = ViewDef::new("chain17", chain(&tables));
    let id = engine.add_view(def.clone()).expect("view registers");
    let mut maintainer = Maintainer::new(db);
    assert_eq!(maintainer.register(id, &def), MaintainStrategy::Incremental);
    assert_eq!(maintainer.contents(id).map(<[Row]>::len), Some(4));

    // One delta round: a new head row that chains through, and the loss
    // of a row in the middle of the chain.
    let head = TableDelta::insert(tables[0], vec![vec![Value::Int(9), Value::Int(1)]]);
    let middle = TableDelta::delete(tables[8], vec![vec![Value::Int(2), Value::Int(2)]]);
    for delta in [&head, &middle] {
        let report = maintainer.apply_with_engine(delta, &engine);
        assert_eq!(report.maintained, 1);
        let diags = maintainer.audit();
        assert!(diags.is_empty(), "{diags:?}");
    }
    assert_eq!(maintainer.contents(id).map(<[Row]>::len), Some(4));
}
