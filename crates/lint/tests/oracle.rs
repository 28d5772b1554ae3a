//! The oracle over the section 5 workload on empty inputs: every query,
//! planned with and without views, and every view's materialized rows, on
//! the tiny database and on one variant per TPC-H table that empties it. An empty side is where a plan and the
//! interpreter part ways first: a keyless pre-aggregate over no rows
//! returns one row, a grouped one none.
//!
//! Equivalence is relative to the declared constraints, so every variant
//! also empties the tables whose foreign keys would dangle: emptying
//! `partsupp` alone leaves lineitem's rows pointing nowhere, and a view
//! that eliminated `partsupp` as an FK-extra table then rightly answers
//! differently from the query.

use mv_bench::{build_workload, engine_with, DATA_SEED};
use mv_catalog::TableId;
use mv_core::MatchConfig;
use mv_data::{generate_tpch, Database, TpchScale};
use mv_exec::{bag_diff, bag_eq, execute_spjg, materialize_view};
use mv_lint::oracle::{materialize_views, Oracle};
use mv_optimizer::OptimizerConfig;

const VIEWS: usize = 200;
const QUERIES: usize = 100;

/// `db` with `table` emptied, and with it every table that references an
/// emptied one.
fn emptied(db: &Database, table: TableId) -> Database {
    let mut empty = vec![table];
    let mut i = 0;
    while i < empty.len() {
        for (_, fk) in db.catalog.foreign_keys() {
            if fk.to_table == empty[i] && !empty.contains(&fk.from_table) {
                empty.push(fk.from_table);
            }
        }
        i += 1;
    }
    let mut variant = db.clone();
    for t in empty {
        variant.load(t, Vec::new());
    }
    variant
}

/// The tiny database, then one variant per table that empties it.
fn databases() -> Vec<(String, Database)> {
    let (tiny, _) = generate_tpch(&TpchScale::tiny(), DATA_SEED);
    let mut databases = vec![("tiny".to_string(), tiny.clone())];
    for t in 0..tiny.catalog.table_count() as u32 {
        let name = format!("tiny without {}", tiny.catalog.table(TableId(t)).name);
        databases.push((name, emptied(&tiny, TableId(t))));
    }
    databases
}

#[test]
fn plans_and_substitutes_hold_on_empty_tables() {
    let workload = build_workload(VIEWS, QUERIES);
    let engine = engine_with(&workload, VIEWS, MatchConfig::default());
    let databases = databases();

    let mut plans = 0;
    for (name, db) in &databases {
        assert_eq!(db.check_foreign_keys(), 0, "{name} violates a foreign key");
        let store = materialize_views(&engine, db);
        for use_views in [true, false] {
            let mut oracle = Oracle {
                optimizer: OptimizerConfig {
                    use_views,
                    ..OptimizerConfig::default()
                },
                ..Oracle::new(&engine, db, &store)
            };
            for (i, query) in workload.queries.iter().enumerate() {
                let diagnostics = oracle.check_query(query, &format!("q{i}")).diagnostics;
                assert!(
                    diagnostics.is_empty(),
                    "{name}, use_views {use_views}:\n{diagnostics:#?}"
                );
            }
            plans += oracle.counts.plans_checked;
        }
    }
    assert_eq!(plans, databases.len() * 2 * QUERIES);
}

/// `materialize_view` runs the view's compiled program, so the oracle's
/// store is checked here against the interpreter, an executor it shares
/// nothing with: every view, on every database, as a bag (float bits
/// included).
#[test]
fn materialized_views_equal_the_interpreter() {
    let workload = build_workload(VIEWS, QUERIES);
    let engine = engine_with(&workload, VIEWS, MatchConfig::default());
    let mut nonempty = 0;
    for (name, db) in &databases() {
        for (id, view) in engine.views().iter() {
            let got = materialize_view(db, view);
            let want = execute_spjg(db, &view.expr);
            assert!(
                bag_eq(&got, &want),
                "{name}, view {}: {:?}",
                id.0,
                bag_diff(&got, &want)
            );
            nonempty += !got.is_empty() as usize;
        }
    }
    assert!(nonempty > VIEWS, "only {nonempty} views hold rows");
}
