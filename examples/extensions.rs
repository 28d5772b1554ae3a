//! The paper's extensions in action: check-constraint folding (section
//! 3.1.2), the nullable-FK relaxation (section 3.2 / Example 5), and
//! base-table backjoins (section 7 future work) — all implemented and all
//! verified by execution.
//!
//! ```text
//! cargo run --release --example extensions
//! ```

use matview::prelude::*;

fn main() {
    let (db, _) = generate_tpch(&TpchScale::small(), 2026);
    let catalog = db.catalog.clone();

    // ------------------------------------------------------------------
    // 1. Check-constraint folding.
    // ------------------------------------------------------------------
    println!("=== check constraints (section 3.1.2) ===");
    let view = parse_view(
        "CREATE VIEW nonneg AS SELECT o_orderkey, o_totalprice \
         FROM dbo.orders WHERE o_totalprice >= 0",
        &catalog,
    )
    .unwrap();
    let query = parse_query("SELECT o_orderkey FROM orders", &catalog).unwrap();

    let plain = MatchingEngine::new(catalog.clone(), MatchConfig::default());
    plain.add_view(view.clone()).unwrap();
    println!(
        "without the constraint: {} substitutes (the view's o_totalprice >= 0 \
         range is not implied)",
        plain.find_substitutes(&query).len()
    );

    let engine = MatchingEngine::new(catalog.clone(), MatchConfig::default());
    let orders = catalog.table_by_name("orders").unwrap();
    engine
        .add_check_constraint(
            orders,
            matview::expr::BoolExpr::cmp(
                ScalarExpr::Column(ColRef::new(0, 3)),
                CmpOp::Ge,
                ScalarExpr::Literal(Value::Int(0)),
            ),
        )
        .unwrap();
    engine.add_view(view.clone()).unwrap();
    let subs = engine.find_substitutes(&query);
    println!(
        "with CHECK (o_totalprice >= 0): {} substitute, {} compensating predicates",
        subs.len(),
        subs[0].1.predicates.len()
    );
    let rows = materialize_view(&db, &view);
    let direct = execute_spjg(&db, &query);
    assert!(bag_eq(
        &execute_substitute_with(&db, &rows, &subs[0].1),
        &direct
    ));
    println!(
        "verified against direct execution ({} rows)\n",
        direct.len()
    );

    // ------------------------------------------------------------------
    // 2. Base-table backjoins.
    // ------------------------------------------------------------------
    println!("=== base-table backjoins (section 7) ===");
    let skinny = parse_view(
        "CREATE VIEW li_keys AS SELECT l_orderkey, l_linenumber, l_quantity \
         FROM dbo.lineitem WHERE l_quantity > 25",
        &catalog,
    )
    .unwrap();
    let query = parse_query(
        "SELECT l_orderkey, l_extendedprice FROM lineitem \
         WHERE l_quantity > 25 AND l_quantity <= 40",
        &catalog,
    )
    .unwrap();

    let plain = MatchingEngine::new(catalog.clone(), MatchConfig::default());
    plain.add_view(skinny.clone()).unwrap();
    println!(
        "strict matcher: {} substitutes (l_extendedprice is not a view output)",
        plain.find_substitutes(&query).len()
    );

    let engine = MatchingEngine::new(
        catalog.clone(),
        MatchConfig {
            allow_backjoins: true,
            ..MatchConfig::default()
        },
    );
    let rows = materialize_view(&db, &skinny);
    engine.add_view(skinny).unwrap();
    let subs = engine.find_substitutes(&query);
    let sub = &subs[0].1;
    println!(
        "with backjoins: 1 substitute, joining back to {} base table(s) on the \
         view's (l_orderkey, l_linenumber) key",
        sub.backjoins.len()
    );
    let got = execute_substitute_with(&db, &rows, sub);
    let direct = execute_spjg(&db, &query);
    assert!(bag_eq(&got, &direct));
    println!(
        "verified against direct execution ({} rows)\n",
        direct.len()
    );

    // ------------------------------------------------------------------
    // 3. Aggregation backjoin with regrouping.
    // ------------------------------------------------------------------
    println!("=== aggregation roll-up through a backjoin ===");
    let rev = parse_view(
        "CREATE VIEW rev_by_order AS \
         SELECT o_orderkey, COUNT_BIG(*) AS cnt, SUM(l_quantity) AS qty \
         FROM dbo.lineitem, dbo.orders WHERE l_orderkey = o_orderkey \
         GROUP BY o_orderkey",
        &catalog,
    )
    .unwrap();
    let query = parse_query(
        "SELECT o_custkey, SUM(l_quantity) AS qty \
         FROM lineitem, orders WHERE l_orderkey = o_orderkey \
         GROUP BY o_custkey",
        &catalog,
    )
    .unwrap();
    let engine = MatchingEngine::new(
        catalog.clone(),
        MatchConfig {
            allow_backjoins: true,
            ..MatchConfig::default()
        },
    );
    let rows = materialize_view(&db, &rev);
    engine.add_view(rev).unwrap();
    let subs = engine.find_substitutes(&query);
    let sub = &subs[0].1;
    println!(
        "per-order revenue view answers a per-customer query: backjoin orders \
         (o_custkey is functionally determined by the group key), regroup = {}",
        sub.regroups()
    );
    let got = execute_substitute_with(&db, &rows, sub);
    let direct = execute_spjg(&db, &query);
    assert!(bag_eq(&got, &direct));
    println!(
        "verified against direct execution ({} groups)",
        direct.len()
    );
}
