//! Quick start: define a materialized view in SQL, let the matcher rewrite
//! a query against it, and verify the rewrite returns identical rows.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use matview::plan::display::{sql_of, sql_of_substitute};
use matview::prelude::*;

fn main() {
    // A small TPC-H database with statistics.
    let (db, _) = generate_tpch(&TpchScale::small(), 42);
    println!(
        "generated TPC-H: {} lineitems, {} orders, {} parts\n",
        db.row_count(db.catalog.table_by_name("lineitem").unwrap()),
        db.row_count(db.catalog.table_by_name("orders").unwrap()),
        db.row_count(db.catalog.table_by_name("part").unwrap()),
    );

    // The paper's Example 1, lightly adapted: an indexed view precomputing
    // per-part gross revenue for cheap parts named like '%steel%'.
    let engine = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
    let view = parse_view(
        "CREATE VIEW v1 WITH SCHEMABINDING AS \
         SELECT p_partkey, p_name, p_retailprice, COUNT_BIG(*) AS cnt, \
                SUM(l_extendedprice * l_quantity) AS gross_revenue \
         FROM dbo.lineitem, dbo.part \
         WHERE p_partkey < 400 AND p_name LIKE '%steel%' AND p_partkey = l_partkey \
         GROUP BY p_partkey, p_name, p_retailprice",
        &db.catalog,
    )
    .expect("view parses");
    println!(
        "materialized view v1:\n{}\n",
        sql_of(&view.expr, &db.catalog)
    );
    let view_rows = materialize_view(&db, &view);
    println!("v1 materialized: {} rows\n", view_rows.len());
    engine.add_view(view).unwrap();

    // A query asking for revenue of an even narrower slice of parts.
    let query = parse_query(
        "SELECT p_partkey, SUM(l_extendedprice * l_quantity) AS revenue \
         FROM lineitem, part \
         WHERE p_partkey = l_partkey AND p_partkey < 200 AND p_name LIKE '%steel%' \
         GROUP BY p_partkey",
        &db.catalog,
    )
    .expect("query parses");
    println!("query:\n{}\n", sql_of(&query, &db.catalog));

    // The view-matching rule: can the query be computed from v1?
    let substitutes = engine.find_substitutes(&query);
    assert_eq!(substitutes.len(), 1, "v1 answers the query");
    let (_, substitute) = &substitutes[0];
    println!(
        "matched! rewritten query:\n{}\n",
        sql_of_substitute(substitute, &engine.views())
    );

    // Correctness: the rewrite returns exactly the original rows.
    let direct = execute_spjg(&db, &query);
    let rewritten = execute_substitute_with(&db, &view_rows, substitute);
    assert!(bag_eq(&direct, &rewritten));
    println!(
        "verified: both plans return the same {} rows (bag equality)",
        direct.len()
    );
}
