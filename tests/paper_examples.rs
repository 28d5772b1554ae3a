//! The paper's worked examples, end to end: SQL text → parser → matcher →
//! executor, with results verified against direct evaluation.

use matview::plan::display::sql_of_substitute;
use matview::prelude::*;
use mv_lint::oracle::{register_views, Checked, Oracle};

fn setup() -> (Database, MatchingEngine) {
    let (db, _) = generate_tpch(&TpchScale::small(), 2001);
    let engine = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
    (db, engine)
}

/// The oracle over `query`, asserting it finds nothing: every substitute's
/// rows and the plan's equal direct evaluation's.
fn sound(engine: &MatchingEngine, db: &Database, store: &ViewStore, query: &SpjgExpr) -> Checked {
    Oracle::new(engine, db, store)
        .check_query(query, "q")
        .assert_sound()
}

/// The name of the view a substitute reads.
fn view_name(engine: &MatchingEngine, id: ViewId) -> String {
    engine.views().get(id).name.clone()
}

/// Example 1: the indexed view v1 can be created and materialized.
#[test]
fn example1_create_and_materialize() {
    let (db, engine) = setup();
    let view = parse_view(
        "create view v1 with schemabinding as \
         select p_partkey, p_name, p_retailprice, count_big(*) as cnt, \
                sum(l_extendedprice * l_quantity) as gross_revenue \
         from dbo.lineitem, dbo.part \
         where p_partkey < 1000 and p_name like '%steel%' and p_partkey = l_partkey \
         group by p_partkey, p_name, p_retailprice",
        &db.catalog,
    )
    .unwrap();
    // "create unique clustered index v1_cidx on v1(p_partkey)": the index
    // is not modelled, but p_partkey, which functionally determines the
    // other grouping columns, is unique over the materialized rows.
    let rows = materialize_view(&db, &view);
    engine.add_view(view).unwrap();
    assert!(!rows.is_empty(), "steel parts exist in the generated data");
    // Every group's count is positive and the key is unique.
    let mut keys = std::collections::HashSet::new();
    for r in &rows {
        assert!(keys.insert(r[0].clone()), "p_partkey must be unique");
        assert!(matches!(r[3], Value::Int(c) if c > 0));
    }
}

/// Example 2: the full subsumption-test walkthrough, via SQL.
#[test]
fn example2_subsumption_and_compensation() {
    let (db, engine) = setup();
    let view = parse_view(
        "create view v2 with schemabinding as \
         select l_orderkey, l_partkey, o_custkey, o_orderdate, l_shipdate, \
                l_quantity, l_extendedprice \
         from dbo.lineitem, dbo.orders, dbo.part \
         where l_orderkey = o_orderkey and l_partkey = p_partkey \
           and p_partkey > 150 and o_custkey > 50 and o_custkey < 500 \
           and p_name like '%abc%'",
        &db.catalog,
    )
    .unwrap();
    let store = register_views(&engine, &db, vec![view]);
    let query = parse_query(
        "select l_orderkey, l_partkey \
         from lineitem, orders, part \
         where l_orderkey = o_orderkey and l_partkey = p_partkey \
           and o_orderdate = l_shipdate \
           and p_partkey > 150 and l_partkey < 160 and o_custkey = 123 \
           and p_name like '%abc%' \
           and l_quantity * l_extendedprice > 100",
        &db.catalog,
    )
    .unwrap();
    // Execution equivalence is checked too (vacuously true if no row
    // matches '%abc%'; the test still exercises the full path).
    let subs = sound(&engine, &db, &store, &query).substitutes;
    assert_eq!(subs.len(), 1, "Example 2 matches");
    assert_eq!(view_name(&engine, subs[0].0), "v2");
    let sub = &subs[0].1;
    // Four compensating predicates, as derived in the paper.
    assert_eq!(sub.predicates.len(), 4);
    let rendered = sql_of_substitute(sub, &engine.views());
    assert!(rendered.contains("l_partkey < 160") || rendered.contains("p_partkey < 160"));
    assert!(rendered.contains("o_custkey = 123"));
}

/// Example 3: extra tables eliminated through cardinality-preserving
/// joins; the view as given is rejected only because it fails to output
/// the dates needed by a compensating predicate.
#[test]
fn example3_extra_tables() {
    let (db, engine) = setup();
    let v3 = parse_view(
        "create view v3 with schemabinding as \
         select c_custkey, c_name, l_orderkey, l_partkey, l_quantity \
         from dbo.lineitem, dbo.orders, dbo.customer \
         where l_orderkey = o_orderkey and o_custkey = c_custkey \
           and o_orderkey >= 500",
        &db.catalog,
    )
    .unwrap();
    engine.add_view(v3).unwrap();
    let query = parse_query(
        "select l_orderkey, l_partkey, l_quantity from lineitem \
         where l_orderkey between 1000 and 1500 and l_shipdate = l_commitdate",
        &db.catalog,
    )
    .unwrap();
    assert!(
        engine.find_substitutes(&query).is_empty(),
        "v3 lacks the date columns for the compensating predicate"
    );

    // With the dates added to the output list, the match goes through and
    // produces correct results.
    let v3b = parse_view(
        "create view v3b with schemabinding as \
         select c_custkey, c_name, l_orderkey, l_partkey, l_quantity, \
                l_shipdate, l_commitdate \
         from dbo.lineitem, dbo.orders, dbo.customer \
         where l_orderkey = o_orderkey and o_custkey = c_custkey \
           and o_orderkey >= 500",
        &db.catalog,
    )
    .unwrap();
    let store = register_views(&engine, &db, vec![v3b]);
    let subs = sound(&engine, &db, &store, &query).substitutes;
    assert_eq!(subs.len(), 1);
    assert_eq!(view_name(&engine, subs[0].0), "v3b");
    assert!(
        !execute_spjg(&db, &query).is_empty(),
        "the window [1000, 1500] holds orders"
    );
}

/// Example 4: the optimizer's pre-aggregation exposes v4 for the
/// revenue-per-nation query; the final plan uses the view and is correct.
#[test]
fn example4_preaggregation() {
    let (db, engine) = setup();
    let v4 = parse_view(
        "create view v4 with schemabinding as \
         select o_custkey, count_big(*) as cnt, \
                sum(l_quantity * l_extendedprice) as revenue \
         from dbo.lineitem, dbo.orders \
         where l_orderkey = o_orderkey \
         group by o_custkey",
        &db.catalog,
    )
    .unwrap();
    let store = register_views(&engine, &db, vec![v4]);

    let query = parse_query(
        "select c_nationkey, sum(l_quantity * l_extendedprice) as revenue \
         from lineitem, orders, customer \
         where l_orderkey = o_orderkey and o_custkey = c_custkey \
         group by c_nationkey",
        &db.catalog,
    )
    .unwrap();
    let checked = sound(&engine, &db, &store, &query);
    // Direct matching of the whole query fails (the view satisfies none of
    // the section 3.3 conditions for it) ...
    assert!(checked.substitutes.is_empty());
    // ... but "this is a case where integration with the optimizer helps":
    // the pre-aggregation alternative matches v4.
    let plan = checked.plan.expect("a plan").plan;
    assert!(plan.uses_view(), "plan:\n{plan}");
}

/// Example 5 (the section 3.2 extension): a nullable foreign key is
/// acceptable when the query carries a null-rejecting predicate.
#[test]
fn example5_null_rejecting_extension() {
    use matview::catalog::schema::{ForeignKey, TableBuilder};
    use matview::catalog::{Catalog, ColumnId, ColumnType};
    use matview::expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
    use matview::plan::NamedExpr;

    let mut cat = Catalog::new();
    let t = cat.add_table(
        TableBuilder::new("t")
            .col("a", ColumnType::Int)
            .nullable_col("f", ColumnType::Int)
            .primary_key(&["a"])
            .build(),
    );
    let s = cat.add_table(
        TableBuilder::new("s")
            .col("k", ColumnType::Int)
            .primary_key(&["k"])
            .build(),
    );
    cat.add_foreign_key(ForeignKey {
        name: "t_f".into(),
        from_table: t,
        from_columns: vec![ColumnId(1)],
        to_table: s,
        to_columns: vec![ColumnId(0)],
    });
    let view = SpjgExpr::spj(
        vec![t, s],
        BoolExpr::col_eq(ColRef::new(0, 1), ColRef::new(1, 0)),
        vec![
            NamedExpr::new(S::col(ColRef::new(0, 0)), "a"),
            NamedExpr::new(S::col(ColRef::new(0, 1)), "f"),
        ],
    );
    let query = SpjgExpr::spj(
        vec![t],
        BoolExpr::cmp(S::col(ColRef::new(0, 1)), CmpOp::Gt, S::lit(50i64)),
        vec![NamedExpr::new(S::col(ColRef::new(0, 0)), "a")],
    );

    // Data where the distinction matters: a row with NULL f.
    let mut db = Database::new(cat.clone());
    db.load(s, (1..=100).map(|k| vec![Value::Int(k)]).collect());
    db.load(
        t,
        vec![
            vec![Value::Int(1), Value::Int(60)],
            vec![Value::Int(2), Value::Null],
            vec![Value::Int(3), Value::Int(40)],
            vec![Value::Int(4), Value::Int(99)],
        ],
    );

    // Strict engine: rejected.
    let strict = MatchingEngine::new(cat.clone(), MatchConfig::default());
    let vid = strict.add_view(ViewDef::new("v", view.clone())).unwrap();
    assert!(strict.find_substitutes(&query).is_empty());
    let _ = vid;

    // Extended engine: accepted, and the rewrite is exact because the
    // query's f > 50 discards the NULL row anyway.
    let extended = MatchingEngine::new(
        cat,
        MatchConfig {
            null_rejecting_fk: true,
            ..MatchConfig::default()
        },
    );
    let store = register_views(&extended, &db, vec![ViewDef::new("v", view)]);
    assert_eq!(sound(&extended, &db, &store, &query).substitutes.len(), 1);
    assert_eq!(execute_spjg(&db, &query).len(), 2); // a=1 (f=60) and a=4 (f=99)
}

/// Example 6 (section 4.2.3): output-column availability through
/// equivalence classes.
#[test]
fn example6_output_column_rerouting() {
    let (db, engine) = setup();
    // View outputs o_orderkey but not l_orderkey; equivalent via the join.
    let view = parse_view(
        "create view v6 with schemabinding as \
         select o_orderkey, l_partkey, l_quantity \
         from dbo.lineitem, dbo.orders where l_orderkey = o_orderkey",
        &db.catalog,
    )
    .unwrap();
    let store = register_views(&engine, &db, vec![view]);
    let query = parse_query(
        "select l_orderkey, l_quantity from lineitem, orders \
         where l_orderkey = o_orderkey",
        &db.catalog,
    )
    .unwrap();
    assert_eq!(sound(&engine, &db, &store, &query).substitutes.len(), 1);
}
