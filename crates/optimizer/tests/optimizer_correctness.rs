//! End-to-end optimizer tests: every optimized plan must produce exactly
//! the same bag of rows as the direct SPJG oracle, with or without
//! materialized views, and views must actually be chosen when they are
//! cheaper.

use mv_core::{MatchConfig, MatchingEngine};
use mv_data::{generate_tpch, Database, TpchScale};
use mv_exec::{execute_spjg, ViewStore};
use mv_expr::{BinOp, BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_lint::oracle::{register_views, Oracle};
use mv_optimizer::{Optimized, Optimizer, OptimizerConfig};
use mv_plan::{AggFunc, NamedAgg, NamedExpr, SpjgExpr, ViewDef};

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

/// Build an engine over generated data and materialize every view.
fn setup(views: Vec<ViewDef>) -> (Database, MatchingEngine, ViewStore) {
    let (db, _) = generate_tpch(&TpchScale::tiny(), 20_260_706);
    let engine = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
    let store = register_views(&engine, &db, views);
    (db, engine, store)
}

/// Run the oracle over `query` (its plan's rows against the interpreter's,
/// and every substitute's), asserting it finds nothing; the plan.
fn check(db: &Database, engine: &MatchingEngine, store: &ViewStore, query: &SpjgExpr) -> Optimized {
    let checked = Oracle::new(engine, db, store).check_query(query, "q");
    checked
        .assert_sound()
        .plan
        .expect("the oracle plans the query")
}

#[test]
fn single_table_spj() {
    let (db, engine, store) = setup(vec![]);
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let q = SpjgExpr::spj(
        vec![t.part],
        BoolExpr::cmp(S::col(cr(0, 5)), CmpOp::Lt, S::lit(25i64)),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "p_partkey"),
            NamedExpr::new(S::col(cr(0, 5)), "p_size"),
        ],
    );
    check(&db, &engine, &store, &q);
}

#[test]
fn multiway_join_plans_are_correct() {
    let (db, engine, store) = setup(vec![]);
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    // lineitem ⋈ orders ⋈ customer with a range and a residual predicate.
    let pred = BoolExpr::and(vec![
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        BoolExpr::col_eq(cr(1, 1), cr(2, 0)),
        BoolExpr::cmp(S::col(cr(2, 0)), CmpOp::Le, S::lit(15i64)),
        BoolExpr::Like {
            expr: S::col(cr(2, 6)),
            pattern: "B%".into(),
            negated: false,
        },
    ]);
    let q = SpjgExpr::spj(
        vec![t.lineitem, t.orders, t.customer],
        pred,
        vec![
            NamedExpr::new(S::col(cr(0, 1)), "l_partkey"),
            NamedExpr::new(S::col(cr(2, 1)), "c_name"),
        ],
    );
    check(&db, &engine, &store, &q);
}

#[test]
fn aggregation_query_without_views() {
    let (db, engine, store) = setup(vec![]);
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let q = SpjgExpr::aggregate(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        vec![NamedExpr::new(S::col(cr(1, 1)), "o_custkey")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(
                AggFunc::Sum(S::col(cr(0, 4)).binary(BinOp::Mul, S::col(cr(0, 5)))),
                "revenue",
            ),
        ],
    );
    check(&db, &engine, &store, &q);
}

#[test]
fn view_is_chosen_when_cheaper_and_plan_is_correct() {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    // A view that precomputes the lineitem-orders join.
    let view = ViewDef::new(
        "lo_join",
        SpjgExpr::spj(
            vec![t.lineitem, t.orders],
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            vec![
                NamedExpr::new(S::col(cr(0, 1)), "l_partkey"),
                NamedExpr::new(S::col(cr(0, 4)), "l_quantity"),
                NamedExpr::new(S::col(cr(1, 1)), "o_custkey"),
                NamedExpr::new(S::col(cr(1, 0)), "o_orderkey"),
            ],
        ),
    );
    let (db, engine, store) = setup(vec![view]);
    let q = SpjgExpr::spj(
        vec![t.lineitem, t.orders],
        BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::cmp(S::col(cr(1, 1)), CmpOp::Le, S::lit(10i64)),
        ]),
        vec![
            NamedExpr::new(S::col(cr(0, 1)), "l_partkey"),
            NamedExpr::new(S::col(cr(0, 4)), "l_quantity"),
        ],
    );
    let optimized = check(&db, &engine, &store, &q);
    assert!(
        optimized.plan.uses_view(),
        "expected the view, got:\n{}",
        optimized.plan
    );
}

#[test]
fn no_alt_mode_matches_but_never_uses_views() {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let view = ViewDef::new(
        "all_parts",
        SpjgExpr::spj(
            vec![t.part],
            BoolExpr::Literal(true),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "p_partkey"),
                NamedExpr::new(S::col(cr(0, 5)), "p_size"),
            ],
        ),
    );
    let (db, engine, store) = setup(vec![view]);
    let q = SpjgExpr::spj(
        vec![t.part],
        BoolExpr::cmp(S::col(cr(0, 5)), CmpOp::Lt, S::lit(20i64)),
        vec![NamedExpr::new(S::col(cr(0, 0)), "p_partkey")],
    );
    let config = OptimizerConfig {
        produce_substitutes: false,
        ..OptimizerConfig::default()
    };
    let optimizer = Optimizer::new(&engine, config.clone());
    let optimized = optimizer.optimize(&q);
    assert!(!optimized.plan.uses_view());
    // The matcher still ran (its analysis is what the NoAlt series times).
    assert!(engine.stats().invocations > 0);
    let mut oracle = Oracle {
        optimizer: config,
        ..Oracle::new(&engine, &db, &store)
    };
    let checked = oracle.check_query(&q, "q").assert_sound();
    assert_eq!(checked.plan, Some(optimized));
}

#[test]
fn example4_preaggregation_uses_v4() {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    // View v4: per-customer order revenue (Example 4 of the paper).
    let revenue = S::col(cr(0, 4)).binary(BinOp::Mul, S::col(cr(0, 5)));
    let v4 = ViewDef::new(
        "v4",
        SpjgExpr::aggregate(
            vec![t.lineitem, t.orders],
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            vec![NamedExpr::new(S::col(cr(1, 1)), "o_custkey")],
            vec![
                NamedAgg::new(AggFunc::CountStar, "cnt"),
                NamedAgg::new(AggFunc::Sum(revenue.clone()), "revenue"),
            ],
        ),
    );
    let (db, engine, store) = setup(vec![v4]);
    // Query: revenue per nation — requires joining customer and rolling
    // up, exactly Example 4.
    let q = SpjgExpr::aggregate(
        vec![t.lineitem, t.orders, t.customer],
        BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::col_eq(cr(1, 1), cr(2, 0)),
        ]),
        vec![NamedExpr::new(S::col(cr(2, 3)), "c_nationkey")],
        vec![NamedAgg::new(AggFunc::Sum(revenue), "revenue")],
    );
    let optimized = check(&db, &engine, &store, &q);
    assert!(
        optimized.plan.uses_view(),
        "pre-aggregation should expose v4:\n{}",
        optimized.plan
    );
}

#[test]
fn preaggregation_correct_even_without_views() {
    // The eager pre-aggregation transformation itself must be semantics
    // preserving. No view is registered, so no substitute competes; this
    // checks only the plan that wins. The unit tests in `optimizer.rs`
    // execute every pre-aggregation alternative, winning or not.
    let (db, engine, store) = setup(vec![]);
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let q = SpjgExpr::aggregate(
        vec![t.lineitem, t.orders, t.customer],
        BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::col_eq(cr(1, 1), cr(2, 0)),
        ]),
        vec![NamedExpr::new(S::col(cr(2, 3)), "c_nationkey")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "n"),
            NamedAgg::new(AggFunc::Sum(S::col(cr(0, 4))), "qty"),
        ],
    );
    // Whatever plan wins (pre-agg or not), it must be correct.
    check(&db, &engine, &store, &q);
}

#[test]
fn scalar_aggregate_and_empty_results() {
    let (db, engine, store) = setup(vec![]);
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    // Scalar aggregate over an empty selection: one row, count 0.
    let q = SpjgExpr::aggregate(
        vec![t.orders],
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Lt, S::lit(0i64)),
        vec![],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(S::col(cr(0, 3))), "total"),
        ],
    );
    check(&db, &engine, &store, &q);
}

#[test]
fn cross_join_queries_are_glued() {
    let (db, engine, store) = setup(vec![]);
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let q = SpjgExpr::spj(
        vec![t.region, t.nation],
        BoolExpr::Literal(true),
        vec![
            NamedExpr::new(S::col(cr(0, 1)), "r_name"),
            NamedExpr::new(S::col(cr(1, 1)), "n_name"),
        ],
    );
    check(&db, &engine, &store, &q);
}

#[test]
fn grouped_cross_product_over_an_empty_side_has_no_groups() {
    // Pre-aggregating the empty side without a key is a scalar aggregate:
    // it returns one row (count 0), and the cross join with the other
    // side used to turn that into one group per nation.
    let (db, engine, store) = setup(vec![]);
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let empty_region = BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Lt, S::lit(0i64));
    let grouped = SpjgExpr::aggregate(
        vec![t.region, t.nation],
        empty_region.clone(),
        vec![NamedExpr::new(S::col(cr(1, 1)), "n_name")],
        vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
    );
    assert!(execute_spjg(&db, &grouped).is_empty());
    check(&db, &engine, &store, &grouped);
    // A scalar query has its one row either way.
    let scalar = SpjgExpr::aggregate(
        vec![t.region, t.nation],
        empty_region,
        vec![],
        vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
    );
    check(&db, &engine, &store, &scalar);
}

#[test]
fn a_wide_chain_plans_in_polynomial_time() {
    // Thirty nation occurrences, each joined to the next on n_nationkey.
    // The chain has 465 connected subsets; enumerating them out of all
    // 2^30 masks, and a subset's splits out of all its submasks, took
    // about 4x longer for every two more occurrences.
    let (db, engine, store) = setup(vec![]);
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    const N: u32 = 30;
    let chain = BoolExpr::and(
        (1..N)
            .map(|i| BoolExpr::col_eq(cr(i - 1, 0), cr(i, 0)))
            .collect(),
    );
    let spj = SpjgExpr::spj(
        vec![t.nation; N as usize],
        chain.clone(),
        vec![
            NamedExpr::new(S::col(cr(0, 1)), "n_name"),
            NamedExpr::new(S::col(cr(N - 1, 2)), "n_regionkey"),
        ],
    );
    // Grouped, so the root also offers pre-aggregation over every split.
    let grouped = SpjgExpr::aggregate(
        vec![t.nation; N as usize],
        chain,
        vec![NamedExpr::new(S::col(cr(N - 1, 2)), "n_regionkey")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(S::col(cr(0, 0))), "keys"),
        ],
    );
    for query in [spj, grouped] {
        assert!(!execute_spjg(&db, &query).is_empty());
        let optimized = check(&db, &engine, &store, &query);
        assert_eq!(optimized.stats.groups, (N * (N + 1) / 2) as usize);
    }
}

#[test]
fn a_block_of_64_occurrences_is_a_typed_error() {
    // The optimizer's subsets are 64-bit masks. A block this wide used to
    // overflow the mask of all occurrences: a shift panic in a debug
    // build, an empty memo indexed in a release build.
    let (catalog, t) = mv_catalog::tpch::tpch_catalog();
    let engine = MatchingEngine::new(catalog.clone(), MatchConfig::default());
    let optimizer = Optimizer::new(&engine, OptimizerConfig::default());
    let api = SpjgExpr::spj(
        vec![t.region; 64],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(63, 1)), "r_name")],
    );
    let from: Vec<String> = (0..64).map(|i| format!("region r{i}")).collect();
    let sql = format!("SELECT r63.r_name FROM {}", from.join(", "));
    let bound = mv_sql::parse_query(&sql, &catalog).expect("64 tables bind");
    assert_eq!(bound.tables.len(), 64);
    for block in [api, bound] {
        let err = optimizer.try_optimize(&block).unwrap_err();
        assert_eq!(err.rule, "MV017");
        assert!(err.detail.contains("64 table occurrences"), "{err}");
    }
}

#[test]
fn malformed_blocks_are_rejected_at_every_entry_point() {
    // `add_view` rejects each of these through `SpjgExpr::validate`; the
    // query side used to panic on them instead, in the catalog lookup or
    // an occurrence index.
    let (catalog, t) = mv_catalog::tpch::tpch_catalog();
    let engine = MatchingEngine::new(catalog.clone(), MatchConfig::default());
    let nation = |pred: BoolExpr, out: ColRef| {
        SpjgExpr::spj(vec![t.nation], pred, vec![NamedExpr::new(S::col(out), "x")])
    };
    let view = engine
        .add_view(ViewDef::new(
            "all_nations",
            nation(BoolExpr::Literal(true), cr(0, 0)),
        ))
        .expect("a valid view");
    let optimizer = Optimizer::new(&engine, OptimizerConfig::default());
    let out_of_range = BoolExpr::cmp(S::col(cr(0, 99)), CmpOp::Ge, S::lit(1i64));
    let blocks = [
        SpjgExpr::spj(
            vec![mv_catalog::TableId(99)],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "x")],
        ),
        nation(out_of_range, cr(0, 0)),
        nation(BoolExpr::Literal(true), cr(0, 99)),
        nation(BoolExpr::Literal(true), cr(3, 0)),
    ];
    for block in &blocks {
        let why = block
            .validate(&catalog)
            .expect_err("the block is malformed");
        for _ in 0..2 {
            assert!(engine.find_substitutes(block).is_empty(), "{why}");
            assert_eq!(
                engine.build_substitute(&engine.views(), block, view),
                None,
                "{why}"
            );
            let err = optimizer.try_optimize(block).unwrap_err();
            assert_eq!((err.rule, err.detail.as_str()), ("MV017", why.as_str()));
        }
    }
    assert_eq!(
        engine.substitute_cache_len(),
        0,
        "nothing malformed is cached"
    );
    assert_eq!(engine.plan_cache_len(), 0, "nothing malformed is cached");
}

#[test]
fn views_never_change_results_across_many_queries() {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    // A pile of views, some useful, some not.
    let views = vec![
        ViewDef::new(
            "parts_sized",
            SpjgExpr::spj(
                vec![t.part],
                BoolExpr::cmp(S::col(cr(0, 5)), CmpOp::Le, S::lit(40i64)),
                vec![
                    NamedExpr::new(S::col(cr(0, 0)), "p_partkey"),
                    NamedExpr::new(S::col(cr(0, 5)), "p_size"),
                    NamedExpr::new(S::col(cr(0, 1)), "p_name"),
                ],
            ),
        ),
        ViewDef::new(
            "li_parts",
            SpjgExpr::spj(
                vec![t.lineitem, t.part],
                BoolExpr::col_eq(cr(0, 1), cr(1, 0)),
                vec![
                    NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
                    NamedExpr::new(S::col(cr(1, 0)), "p_partkey"),
                    NamedExpr::new(S::col(cr(1, 5)), "p_size"),
                    NamedExpr::new(S::col(cr(0, 4)), "l_quantity"),
                ],
            ),
        ),
        ViewDef::new(
            "orders_by_cust",
            SpjgExpr::aggregate(
                vec![t.orders],
                BoolExpr::Literal(true),
                vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
                vec![
                    NamedAgg::new(AggFunc::CountStar, "cnt"),
                    NamedAgg::new(AggFunc::Sum(S::col(cr(0, 3))), "total"),
                ],
            ),
        ),
    ];
    let (db, engine, store) = setup(views);
    let queries = vec![
        SpjgExpr::spj(
            vec![t.part],
            BoolExpr::cmp(S::col(cr(0, 5)), CmpOp::Le, S::lit(12i64)),
            vec![NamedExpr::new(S::col(cr(0, 0)), "p_partkey")],
        ),
        SpjgExpr::spj(
            vec![t.lineitem, t.part],
            BoolExpr::and(vec![
                BoolExpr::col_eq(cr(0, 1), cr(1, 0)),
                BoolExpr::cmp(S::col(cr(1, 5)), CmpOp::Le, S::lit(30i64)),
            ]),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
                NamedExpr::new(S::col(cr(0, 4)), "l_quantity"),
            ],
        ),
        SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Le, S::lit(20i64)),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
            vec![NamedAgg::new(AggFunc::Sum(S::col(cr(0, 3))), "total")],
        ),
        SpjgExpr::aggregate(
            vec![t.lineitem, t.part],
            BoolExpr::col_eq(cr(0, 1), cr(1, 0)),
            vec![NamedExpr::new(S::col(cr(1, 3)), "p_brand")],
            vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
        ),
    ];
    for q in &queries {
        check(&db, &engine, &store, q);
    }
}
