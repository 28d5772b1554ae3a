//! Served plans, lowered to plan programs, against the interpreter.
//!
//! Every plan the optimizer emits for the section 5 generator's queries —
//! over a few hundred registered and materialized views, with and without
//! backjoins — must return exactly the bag `execute_spjg` returns for the
//! query. The run counts the plan shapes it saw and fails if one the
//! lowering treats specially never occurred; the generator alone does not
//! produce every shape, so a few targeted queries go through the same
//! optimizer. Hand-built plans cover what no optimizer output reaches:
//! NULL, duplicated and cross-numeric join keys, a residual that rejects
//! everything, a conjunct over a keyed step's own scan on both join paths,
//! and more leaves than the per-call table of scans holds on the stack.

use mv_catalog::schema::TableBuilder;
use mv_catalog::{Catalog, ColumnType, TableId, Value};
use mv_core::{MatchConfig, MatchingEngine};
use mv_data::{generate_tpch, Database, Row, TpchScale};
use mv_exec::spjg::execute_spj_part;
use mv_exec::{bag_diff, execute_plan, execute_spjg, ViewStore};
use mv_expr::{BinOp, BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_lint::oracle::{register_views, Oracle};
use mv_optimizer::OptimizerConfig;
use mv_plan::{AggFunc, NamedAgg, NamedExpr, OutputList, PhysicalPlan, SpjgExpr};
use mv_workload::{Generator, WorkloadParams};

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

/// How often each plan shape the executor distinguishes was executed.
#[derive(Debug, Default)]
struct Shapes {
    view_scan_filter: usize,
    backjoin: usize,
    bushy_join: usize,
    nested_loop_with_predicate: usize,
    nested_loop_cross: usize,
    preaggregation_under_join: usize,
    computed_project_below_root: usize,
    scalar_aggregate_over_empty_input: usize,
    /// A join whose only single-leaf input is its left one: the right
    /// input's steps go first.
    single_leaf_on_the_left_only: usize,
    /// A join of two joins, flattened into one step sequence.
    bushy_join_flattened: usize,
}

/// The operator under any stack of `Project`s and `Filter`s.
fn strip(plan: &PhysicalPlan) -> &PhysicalPlan {
    match plan {
        PhysicalPlan::Project { input, .. } | PhysicalPlan::Filter { input, .. } => strip(input),
        other => other,
    }
}

/// Whether `plan` is one step of a lowered program: a scan, or an
/// aggregate or computing projection (a program of its own), under filters
/// and bare projections.
fn single_leaf(plan: &PhysicalPlan) -> bool {
    match plan {
        PhysicalPlan::Filter { input, .. } => single_leaf(input),
        PhysicalPlan::Project { input, exprs }
            if exprs.iter().all(|e| matches!(e, S::Column(_))) =>
        {
            single_leaf(input)
        }
        other => !is_join(other),
    }
}

fn is_join(plan: &PhysicalPlan) -> bool {
    matches!(
        plan,
        PhysicalPlan::HashJoin { .. } | PhysicalPlan::NestedLoopJoin { .. }
    )
}

impl Shapes {
    fn count(&mut self, plan: &PhysicalPlan, is_root: bool) {
        match plan {
            PhysicalPlan::Filter { input, .. } => {
                self.view_scan_filter += matches!(**input, PhysicalPlan::ViewScan { .. }) as usize;
            }
            PhysicalPlan::HashJoin { left, right, .. } => {
                self.backjoin += (matches!(**left, PhysicalPlan::ViewScan { .. })
                    && matches!(**right, PhysicalPlan::TableScan { .. }))
                    as usize;
            }
            PhysicalPlan::NestedLoopJoin { predicate, .. } => match predicate {
                Some(_) => self.nested_loop_with_predicate += 1,
                None => self.nested_loop_cross += 1,
            },
            PhysicalPlan::Project { exprs, .. } => {
                let computed = exprs.iter().any(|e| !matches!(e, S::Column(_)));
                self.computed_project_below_root += (computed && !is_root) as usize;
            }
            _ => {}
        }
        if let PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::NestedLoopJoin { left, right, .. } = plan
        {
            let (l, r) = (strip(left), strip(right));
            if is_join(l) && is_join(r) {
                self.bushy_join += 1;
            }
            match (single_leaf(left), single_leaf(right)) {
                (true, false) => self.single_leaf_on_the_left_only += 1,
                (false, false) => self.bushy_join_flattened += 1,
                _ => {}
            }
            if [l, r]
                .iter()
                .any(|side| matches!(side, PhysicalPlan::HashAggregate { .. }))
            {
                self.preaggregation_under_join += 1;
            }
        }
        for child in plan.children() {
            self.count(child, false);
        }
    }
}

struct Fixture {
    db: Database,
    engine: MatchingEngine,
    store: ViewStore,
}

fn fixture(config: MatchConfig, n_views: usize) -> Fixture {
    let (db, _) = generate_tpch(&TpchScale::tiny(), 20_260_928);
    let engine = MatchingEngine::new(db.catalog.clone(), config);
    let views = Generator::new(&db.catalog, WorkloadParams::views(), 41).views(n_views);
    let store = register_views(&engine, &db, views);
    Fixture { db, engine, store }
}

/// Count the shapes of `plan`, an executed plan for `query`.
fn count(fx: &Fixture, plan: &PhysicalPlan, query: &SpjgExpr, shapes: &mut Shapes) {
    shapes.count(plan, true);
    if let OutputList::Aggregate { group_by, .. } = &query.output {
        if group_by.is_empty() && execute_spj_part(&fx.db, query).is_empty() {
            shapes.scalar_aggregate_over_empty_input += 1;
        }
    }
}

/// Execute a hand-built `plan`, compare with the interpreter's answer to
/// `query`, and count the plan's shapes.
fn check_plan(fx: &Fixture, plan: &PhysicalPlan, query: &SpjgExpr, shapes: &mut Shapes) {
    let got = execute_plan(&fx.db, &fx.store, plan);
    let want = execute_spjg(&fx.db, query);
    if let Some(diff) = bag_diff(&got, &want) {
        panic!("served plan disagrees with the interpreter: {diff}\nplan:\n{plan}");
    }
    count(fx, plan, query, shapes);
}

/// The oracle over `query`, the optimizer's plan against the interpreter
/// among its checks, and the shapes of that plan.
fn check(fx: &Fixture, use_views: bool, query: &SpjgExpr, shapes: &mut Shapes) {
    let mut oracle = Oracle {
        optimizer: OptimizerConfig {
            use_views,
            ..OptimizerConfig::default()
        },
        ..Oracle::new(&fx.engine, &fx.db, &fx.store)
    };
    let checked = oracle.check_query(query, "q").assert_sound();
    count(fx, &checked.plan.expect("plan").plan, query, shapes);
}

/// Queries for the shapes the generator's foreign-key walks never reach.
fn targeted_queries() -> Vec<SpjgExpr> {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let names = vec![
        NamedExpr::new(S::col(cr(0, 1)), "r_name"),
        NamedExpr::new(S::col(cr(1, 1)), "n_name"),
    ];
    vec![
        // No predicate relates the two tables: a cross join.
        SpjgExpr::spj(
            vec![t.region, t.nation],
            BoolExpr::cmp(S::col(cr(1, 0)), CmpOp::Le, S::lit(7i64)),
            names.clone(),
        ),
        // Related by an inequality only: a nested loop with a predicate.
        SpjgExpr::spj(
            vec![t.region, t.nation],
            BoolExpr::cmp(S::col(cr(1, 2)), CmpOp::Lt, S::col(cr(0, 0))),
            names,
        ),
        // A scalar aggregate whose input is empty.
        SpjgExpr::aggregate(
            vec![t.lineitem, t.orders],
            BoolExpr::and(vec![
                BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
                BoolExpr::cmp(S::col(cr(0, 4)), CmpOp::Lt, S::lit(0i64)),
            ]),
            vec![],
            vec![
                NamedAgg::new(AggFunc::CountStar, "cnt"),
                NamedAgg::new(AggFunc::Sum(S::col(cr(0, 5))), "total"),
                NamedAgg::new(AggFunc::SumZero(S::col(cr(1, 3))), "total0"),
            ],
        ),
    ]
}

/// The optimizer only computes expressions at the root, so the computed
/// `Project` under a join is built by hand: lineitem's key and
/// `l_quantity * l_extendedprice`, joined to orders.
fn computed_project_under_join() -> (PhysicalPlan, SpjgExpr) {
    let (_, t) = mv_catalog::tpch::tpch_catalog();
    let product = |occ| S::col(cr(occ, 4)).binary(BinOp::Mul, S::col(cr(occ, 5)));
    let plan = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::TableScan { table: t.lineitem }),
                exprs: vec![S::col(cr(0, 0)), product(0)],
            }),
            right: Box::new(PhysicalPlan::TableScan { table: t.orders }),
            left_keys: vec![0],
            right_keys: vec![0],
            residual: None,
        }),
        // The product, o_custkey (2 + 1), and the product plus one.
        exprs: vec![
            S::col(cr(0, 1)),
            S::col(cr(0, 3)),
            S::col(cr(0, 1)).binary(BinOp::Add, S::lit(1i64)),
        ],
    };
    let query = SpjgExpr::spj(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        vec![
            NamedExpr::new(product(0), "product"),
            NamedExpr::new(S::col(cr(1, 1)), "o_custkey"),
            NamedExpr::new(product(0).binary(BinOp::Add, S::lit(1i64)), "plus_one"),
        ],
    );
    (plan, query)
}

#[test]
fn optimizer_plans_match_the_interpreter_on_every_shape() {
    let mut shapes = Shapes::default();
    let plain = fixture(MatchConfig::default(), 300);
    let backjoins = fixture(
        MatchConfig {
            allow_backjoins: true,
            ..MatchConfig::default()
        },
        300,
    );
    let mut queries = Generator::new(&plain.db.catalog, WorkloadParams::queries(), 42).queries(150);
    queries.extend(targeted_queries());
    for q in &queries {
        check(&plain, true, q, &mut shapes);
        check(&backjoins, true, q, &mut shapes);
        // Without views every join and pre-aggregation runs on base tables.
        check(&plain, false, q, &mut shapes);
    }
    let (plan, query) = computed_project_under_join();
    check_plan(&plain, &plan, &query, &mut shapes);

    println!("{shapes:#?}");
    let Shapes {
        view_scan_filter,
        backjoin,
        bushy_join,
        nested_loop_with_predicate,
        nested_loop_cross,
        preaggregation_under_join,
        computed_project_below_root,
        scalar_aggregate_over_empty_input,
        single_leaf_on_the_left_only,
        bushy_join_flattened,
    } = shapes;
    for (shape, seen) in [
        ("view scan with compensation filter", view_scan_filter),
        ("backjoin HashJoin", backjoin),
        ("bushy join", bushy_join),
        ("NestedLoopJoin with predicate", nested_loop_with_predicate),
        ("NestedLoopJoin without predicate", nested_loop_cross),
        ("pre-aggregation under a join", preaggregation_under_join),
        (
            "computed Project below the root",
            computed_project_below_root,
        ),
        (
            "scalar aggregate over empty input",
            scalar_aggregate_over_empty_input,
        ),
        (
            "join whose only single-leaf input is the left one",
            single_leaf_on_the_left_only,
        ),
        ("bushy join flattened", bushy_join_flattened),
    ] {
        assert!(seen > 0, "no executed plan had the shape: {shape}");
    }
}

/// Two single-purpose tables `a(x, tag)` and `b(y, tag)` with nullable
/// keys of the given types.
fn key_tables(
    x: ColumnType,
    y: ColumnType,
    a_rows: Vec<Row>,
    b_rows: Vec<Row>,
) -> (Database, TableId, TableId) {
    let mut cat = Catalog::new();
    let a = cat.add_table(
        TableBuilder::new("a")
            .nullable_col("x", x)
            .col("tag", ColumnType::Int)
            .build(),
    );
    let b = cat.add_table(
        TableBuilder::new("b")
            .nullable_col("y", y)
            .col("tag", ColumnType::Int)
            .build(),
    );
    let mut db = Database::new(cat);
    db.load(a, a_rows);
    db.load(b, b_rows);
    (db, a, b)
}

/// `a JOIN b ON x = y [AND residual]` as a hash join, against the
/// interpreter.
fn check_key_join(db: &Database, a: TableId, b: TableId, residual: Option<BoolExpr>) -> Vec<Row> {
    let plan = PhysicalPlan::HashJoin {
        left: Box::new(PhysicalPlan::TableScan { table: a }),
        right: Box::new(PhysicalPlan::TableScan { table: b }),
        left_keys: vec![0],
        right_keys: vec![0],
        residual: residual.clone(),
    };
    // The residual addresses the joined row (a.x, a.tag, b.y, b.tag); the
    // query addresses the same columns by occurrence.
    let by_occurrence = |c: ColRef| ColRef::new(c.col.0 / 2, c.col.0 % 2);
    let mut conjuncts = vec![BoolExpr::col_eq(cr(0, 0), cr(1, 0))];
    conjuncts.extend(residual.map(|r| r.map_columns(&mut { by_occurrence })));
    let query = SpjgExpr::spj(
        vec![a, b],
        BoolExpr::and(conjuncts),
        (0..4)
            .map(|p| NamedExpr::new(S::col(by_occurrence(cr(0, p))), format!("c{p}")))
            .collect(),
    );
    let got = execute_plan(db, &ViewStore::new(), &plan);
    let want = execute_spjg(db, &query);
    if let Some(diff) = bag_diff(&got, &want) {
        panic!("hash join disagrees with the interpreter: {diff}");
    }
    got
}

fn keyed(keys: &[Value]) -> Vec<Row> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| vec![k.clone(), Value::Int(i as i64)])
        .collect()
}

#[test]
fn null_and_duplicate_keys_on_both_sides() {
    let few = keyed(&[Value::Int(1), Value::Null, Value::Int(2), Value::Int(1)]);
    let many = keyed(&[
        Value::Int(1),
        Value::Int(1),
        Value::Null,
        Value::Int(3),
        Value::Int(2),
        Value::Null,
        Value::Int(1),
    ]);
    // Either input may be the smaller one, so either may be the build side.
    for (a_rows, b_rows) in [(few.clone(), many.clone()), (many, few)] {
        let (db, a, b) = key_tables(ColumnType::Int, ColumnType::Int, a_rows, b_rows);
        let rows = check_key_join(&db, a, b, None);
        // 1 joins 2 x 3 times, 2 joins once, NULL and 3 never.
        assert_eq!(rows.len(), 7);
    }
}

#[test]
fn int_keys_join_the_floats_they_equal() {
    let ints = keyed(&[Value::Int(1), Value::Int(2), Value::Int(3)]);
    let floats = keyed(&[
        Value::Float(1.0),
        Value::Float(2.0),
        Value::Float(2.5),
        Value::Float(2.0),
    ]);
    for (x, y, a_rows, b_rows) in [
        (
            ColumnType::Int,
            ColumnType::Float,
            ints.clone(),
            floats.clone(),
        ),
        (ColumnType::Float, ColumnType::Int, floats, ints),
    ] {
        let (db, a, b) = key_tables(x, y, a_rows, b_rows);
        assert_eq!(check_key_join(&db, a, b, None).len(), 3);
    }
}

#[test]
fn residual_that_rejects_every_pair() {
    let rows = keyed(&[Value::Int(1), Value::Int(1), Value::Int(2)]);
    let (db, a, b) = key_tables(ColumnType::Int, ColumnType::Int, rows.clone(), rows);
    // a.tag < a.tag holds for no row.
    let never = BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Lt, S::col(cr(0, 1)));
    assert!(check_key_join(&db, a, b, Some(never)).is_empty());
    // And a residual over both sides that keeps some pairs.
    let some = BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Lt, S::col(cr(0, 3)));
    assert_eq!(check_key_join(&db, a, b, Some(some)).len(), 1);
}

/// One-column joins, each against the interpreter with the smaller table
/// (the build side) on the left and then on the right. A build side whose
/// keys are `Int`s over a dense range is addressed by key offset; these
/// cases probe that layout's edges and the keys that fall back to hashing.
#[test]
fn single_key_build_layouts() {
    use ColumnType::{Date, Float, Int};
    let ints = |ks: &[i64]| ks.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>();
    let with_null = |mut keys: Vec<Value>| {
        keys.push(Value::Null);
        keys
    };
    let big = 1i64 << 53;
    // (case, build type, build keys, probe type, probe keys, joined pairs)
    let cases = [
        (
            "negative keys, NULLs and duplicates",
            Int,
            with_null(ints(&[-5, -3, -3, -1])),
            Int,
            with_null(ints(&[-5, -4, -3, -1, 0, -3])),
            6,
        ),
        (
            "keys at i64::MIN and i64::MAX",
            Int,
            ints(&[i64::MIN, i64::MAX, 0]),
            Int,
            ints(&[i64::MIN, i64::MAX, 0, -1, 1]),
            3,
        ),
        (
            "sparse keys",
            Int,
            ints(&[1, 1_000_000, 5_000_000_000]),
            Int,
            ints(&[1, 1_000_000, 2, 5_000_000_000]),
            3,
        ),
        (
            "Float probes of Int keys",
            Int,
            with_null(ints(&[0, 1, 2, 3])),
            Float,
            with_null(
                [
                    1.0,
                    2.5,
                    3.0,
                    -0.0,
                    -1.0,
                    f64::NAN,
                    f64::INFINITY,
                    big as f64,
                ]
                .map(Value::Float)
                .to_vec(),
            ),
            3,
        ),
        (
            "an all-NULL build side",
            Int,
            vec![Value::Null, Value::Null],
            Int,
            with_null(ints(&[1, 2])),
            0,
        ),
        (
            "a Date key",
            Date,
            with_null(vec![Value::Date(1), Value::Date(2)]),
            Date,
            [2, 3, 1, 2].map(Value::Date).to_vec(),
            3,
        ),
    ];
    for (case, build_ty, build, probe_ty, probe, pairs) in cases {
        assert!(
            build.len() < probe.len(),
            "{case}: the build side is smaller"
        );
        let (build, probe) = (keyed(&build), keyed(&probe));
        for (x, y, a_rows, b_rows) in [
            (build_ty, probe_ty, build.clone(), probe.clone()),
            (probe_ty, build_ty, probe, build),
        ] {
            let (db, a, b) = key_tables(x, y, a_rows, b_rows);
            assert_eq!(check_key_join(&db, a, b, None).len(), pairs, "{case}");
        }
    }
}

/// A served join whose keyed step has a conjunct over its own scan alone
/// (the optimizer's filter over a scan, under the join): below
/// `HASH_COMPARES` (8) rows the step keeps the nested loop and applies the
/// conjunct to the joined tuples; above, it evaluates the conjunct on the
/// scan rows and indexes only the rows that pass. Either way the answer is
/// the interpreter's, and the conjunct removes rows.
#[test]
fn a_conjunct_over_the_keyed_scan_holds_on_both_join_paths() {
    for n in [4i64, 40] {
        let rows = keyed(&(0..n).map(|i| Value::Int(i % 5)).collect::<Vec<_>>());
        let (db, a, b) = key_tables(ColumnType::Int, ColumnType::Int, rows.clone(), rows);
        let cut = n / 2;
        let tag_below = |occ| BoolExpr::cmp(S::col(cr(occ, 1)), CmpOp::Lt, S::lit(cut));
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::TableScan { table: a }),
            right: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::TableScan { table: b }),
                predicate: tag_below(0),
            }),
            left_keys: vec![0],
            right_keys: vec![0],
            residual: None,
        };
        let columns = (0..4)
            .map(|p| NamedExpr::new(S::col(cr(p / 2, p % 2)), format!("c{p}")))
            .collect::<Vec<_>>();
        let join = BoolExpr::col_eq(cr(0, 0), cr(1, 0));
        let query = SpjgExpr::spj(
            vec![a, b],
            BoolExpr::and(vec![join.clone(), tag_below(1)]),
            columns.clone(),
        );
        let got = execute_plan(&db, &ViewStore::new(), &plan);
        if let Some(diff) = bag_diff(&got, &execute_spjg(&db, &query)) {
            panic!("{n} rows: {diff}");
        }
        let unfiltered = execute_spjg(&db, &SpjgExpr::spj(vec![a, b], join, columns));
        assert!(!got.is_empty() && got.len() < unfiltered.len(), "{n} rows");
    }
}

/// Rows sorted by their debug form, which tells `Int(2)` from
/// `Float(2.0)` where `bag_diff` (by `Value::eq`) cannot.
fn debug_rows(rows: &[Row]) -> Vec<String> {
    let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Grouping against the interpreter, compared by debug form: more groups
/// than the table scans for, NULL keys, `Int(2)` and `Float(2.0)` in one
/// group (whose key takes the variant of its first row, `Float` for 2 and
/// `Int` for 3), computed keys, a scalar aggregate over no rows, and an
/// aggregate under a join.
#[test]
fn grouping_keeps_the_first_rows_key() {
    let mut cat = Catalog::new();
    let g = cat.add_table(
        TableBuilder::new("g")
            .nullable_col("k", ColumnType::Float)
            .nullable_col("j", ColumnType::Int)
            .col("v", ColumnType::Int)
            .build(),
    );
    let rows: Vec<Row> = (0..90i64)
        .map(|i| {
            let k = match i % 9 {
                0 => Value::Null,
                1 if i < 45 => Value::Float(2.0),
                1 => Value::Int(2),
                2 if i < 45 => Value::Int(3),
                2 => Value::Float(3.0),
                _ => Value::Int(i % 31),
            };
            let j = if i % 4 == 0 {
                Value::Null
            } else {
                Value::Int(i % 3)
            };
            vec![k, j, Value::Int(i)]
        })
        .collect();
    let mut db = Database::new(cat);
    db.load(g, rows.clone());

    let col = |c: u32| S::col(cr(0, c));
    let aggs = || {
        vec![
            AggFunc::CountStar,
            AggFunc::Sum(col(2)),
            AggFunc::Sum(col(0)),
        ]
    };
    let named_aggs = || {
        aggs()
            .into_iter()
            .enumerate()
            .map(|(i, f)| NamedAgg::new(f, format!("a{i}")))
            .collect::<Vec<_>>()
    };
    let scan = || Box::new(PhysicalPlan::TableScan { table: g });
    let grouped = |keys: Vec<S>| {
        let plan = PhysicalPlan::HashAggregate {
            input: scan(),
            group_by: keys.clone(),
            aggregates: aggs(),
        };
        let named = keys
            .into_iter()
            .enumerate()
            .map(|(i, e)| NamedExpr::new(e, format!("g{i}")))
            .collect();
        let query = SpjgExpr::aggregate(vec![g], BoolExpr::Literal(true), named, named_aggs());
        (plan, query)
    };
    let bare = grouped(vec![col(0), col(1)]);
    let computed = grouped(vec![col(0), col(1).binary(BinOp::Add, S::lit(1i64))]);
    let never = BoolExpr::cmp(col(2), CmpOp::Lt, S::lit(0i64));
    let empty_scalar = (
        PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: scan(),
                predicate: never.clone(),
            }),
            group_by: vec![],
            aggregates: aggs(),
        },
        SpjgExpr::aggregate(vec![g], never, vec![], named_aggs()),
    );
    for (case, (plan, query)) in [
        ("bare-column keys", &bare),
        ("computed keys", &computed),
        ("a scalar aggregate over no rows", &empty_scalar),
    ] {
        let got = execute_plan(&db, &ViewStore::new(), plan);
        let want = execute_spjg(&db, query);
        assert_eq!(debug_rows(&got), debug_rows(&want), "{case}");
    }
    let groups = execute_spjg(&db, &bare.1);
    assert!(groups.len() > 16, "past the scanned group count");
    for key in ["[Float(2.0), Int(1)", "[Int(3), Int(1)"] {
        assert!(
            debug_rows(&groups).iter().any(|r| r.starts_with(key)),
            "{key}"
        );
    }

    // The grouped rows joined back to `g` on `k`: the aggregate runs as
    // the join's owned leaf. The oracle joins the interpreter's groups to
    // the rows by hand.
    let plan = PhysicalPlan::HashJoin {
        left: Box::new(bare.0.clone()),
        right: scan(),
        left_keys: vec![0],
        right_keys: vec![0],
        residual: None,
    };
    let want: Vec<Row> = groups
        .iter()
        .flat_map(|grp| {
            rows.iter()
                .filter(|row| !grp[0].is_null() && grp[0] == row[0])
                .map(move |row| [grp.as_slice(), row.as_slice()].concat())
        })
        .collect();
    assert!(!want.is_empty());
    let got = execute_plan(&db, &ViewStore::new(), &plan);
    assert_eq!(
        debug_rows(&got),
        debug_rows(&want),
        "aggregate under a join"
    );
}

/// `SUM` over `Float`s through a served plan: each group's floats are
/// summed exactly and rounded once, so the total is the same whatever
/// order the scan feeds the rows in, and bit-equal to the interpreter's.
/// The values cancel and underflow the way a left-to-right `f64` sum
/// rounds differently per order — the test checks that it does.
#[test]
fn float_sums_are_bit_equal_in_every_row_order() {
    let mut cat = Catalog::new();
    let f = cat.add_table(
        TableBuilder::new("f")
            .col("k", ColumnType::Int)
            .nullable_col("x", ColumnType::Float)
            .build(),
    );
    let floats = [
        1e16, 1.0, -1e16, 1.0, 0.1, 0.2, 0.3, 1e-8, 3.0, -0.5, 2.5e-3,
    ];
    let rows: Vec<Row> = (0..66i64)
        .map(|i| {
            let x = match i % 12 {
                11 => Value::Null,
                at => Value::Float(floats[at as usize] * (1 + i % 3) as f64),
            };
            vec![Value::Int(i % 3), x]
        })
        .collect();
    let x = S::col(cr(0, 1));
    let grouped = (
        PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::TableScan { table: f }),
            group_by: vec![S::col(cr(0, 0))],
            aggregates: vec![AggFunc::Sum(x.clone()), AggFunc::CountStar],
        },
        SpjgExpr::aggregate(
            vec![f],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
            vec![
                NamedAgg::new(AggFunc::Sum(x.clone()), "total"),
                NamedAgg::new(AggFunc::CountStar, "n"),
            ],
        ),
    );
    let scalar = (
        PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::TableScan { table: f }),
            group_by: vec![],
            aggregates: vec![AggFunc::Sum(x.clone())],
        },
        SpjgExpr::aggregate(
            vec![f],
            BoolExpr::Literal(true),
            vec![],
            vec![NamedAgg::new(AggFunc::Sum(x), "total")],
        ),
    );

    let rotated = |by: usize| {
        let mut rows = rows.clone();
        rows.rotate_left(by);
        rows
    };
    let (small, rest): (Vec<Row>, Vec<Row>) = rows.iter().cloned().partition(|r| {
        let Value::Float(x) = r[1] else { return false };
        x.abs() < 1.0
    });
    let orders: Vec<Vec<Row>> = vec![
        rows.clone(),
        rows.iter().rev().cloned().collect(),
        rotated(1),
        rotated(5),
        rotated(29),
        [small, rest].concat(),
    ];
    // Left-to-right `f64` sums of the same rows disagree across orders.
    let naive: Vec<u64> = orders
        .iter()
        .map(|rows| {
            let sum: f64 = rows
                .iter()
                .filter_map(|r| match r[1] {
                    Value::Float(x) => Some(x),
                    _ => None,
                })
                .sum();
            sum.to_bits()
        })
        .collect();
    assert!(naive.iter().any(|&bits| bits != naive[0]), "{naive:?}");

    for (case, (plan, query)) in [("grouped", &grouped), ("scalar", &scalar)] {
        let mut first: Option<Vec<String>> = None;
        for (at, rows) in orders.iter().enumerate() {
            let mut db = Database::new(cat.clone());
            db.load(f, rows.clone());
            let got = debug_rows(&execute_plan(&db, &ViewStore::new(), plan));
            let want = debug_rows(&execute_spjg(&db, query));
            assert_eq!(got, want, "{case}, row order {at}");
            assert!(got.iter().all(|r| r.contains("Float(")), "{got:?}");
            assert_eq!(
                first.get_or_insert_with(|| got.clone()),
                &got,
                "{case}, row order {at}"
            );
        }
    }
}

/// A balanced tree of hash joins over `leaves` scans of nation, every join
/// on the first column of both inputs.
fn nation_join_tree(nation: TableId, leaves: usize) -> PhysicalPlan {
    if leaves == 1 {
        return PhysicalPlan::TableScan { table: nation };
    }
    PhysicalPlan::HashJoin {
        left: Box::new(nation_join_tree(nation, leaves / 2)),
        right: Box::new(nation_join_tree(nation, leaves - leaves / 2)),
        left_keys: vec![0],
        right_keys: vec![0],
        residual: None,
    }
}

#[test]
fn more_than_sixteen_leaves() {
    const LEAVES: usize = 19;
    const NATION_WIDTH: u32 = 4;
    let (db, t) = generate_tpch(&TpchScale::tiny(), 7);
    // n_name of every leaf.
    let plan = PhysicalPlan::Project {
        input: Box::new(nation_join_tree(t.nation, LEAVES)),
        exprs: (0..LEAVES as u32)
            .map(|leaf| S::col(cr(0, leaf * NATION_WIDTH + 1)))
            .collect(),
    };
    let query = SpjgExpr::spj(
        vec![t.nation; LEAVES],
        BoolExpr::and(
            (1..LEAVES as u32)
                .map(|occ| BoolExpr::col_eq(cr(0, 0), cr(occ, 0)))
                .collect(),
        ),
        (0..LEAVES as u32)
            .map(|occ| NamedExpr::new(S::col(cr(occ, 1)), format!("n{occ}")))
            .collect(),
    );
    let got = execute_plan(&db, &ViewStore::new(), &plan);
    assert_eq!(got.len(), db.row_count(t.nation));
    assert!(bag_diff(&got, &execute_spjg(&db, &query)).is_none());
}
