//! Differential property test: the compiled [`PlanProgram`] /
//! [`SubstitutePipeline`] path must produce byte-identical row bags to the
//! tree-walking interpreter over random SPJG plans × enumerated databases.
//!
//! The generator is a hand-rolled splitmix64 stream (no external crates):
//! deterministic, so every failure names the plan seed that reproduces it.

use mv_catalog::schema::{ForeignKey, TableBuilder};
use mv_catalog::{Catalog, ColumnId, ColumnType, TableId, Value};
use mv_data::{generate_tpch, ColumnDomain, Database, EnumSpec, Enumerator, TableSpec, TpchScale};
use mv_exec::{
    bag_diff, bag_eq, execute_plan, execute_spjg, execute_substitute_with, ExecScratch,
    JoinIndexes, PlanProgram, RowBag, SubstitutePipeline, ViewStore,
};
use mv_expr::{BinOp, BoolExpr, CmpOp, ColRef, Conjunct, ScalarExpr};
use mv_plan::{
    AggFunc, BackJoin, NamedAgg, NamedExpr, OutputList, PhysicalPlan, SpjgExpr, Substitute, ViewId,
};
use std::collections::HashMap;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

struct Fixture {
    catalog: Catalog,
    r: TableId,
    t: TableId,
}

/// Two tables with a key, a nullable FK, strings, floats and NULLs — every
/// value shape the executor distinguishes.
fn fixture() -> Fixture {
    let mut catalog = Catalog::new();
    let r = catalog.add_table(
        TableBuilder::new("r")
            .col("pk", ColumnType::Int)
            .nullable_col("a", ColumnType::Int)
            .nullable_col("s", ColumnType::Str)
            .primary_key(&["pk"])
            .build(),
    );
    let t = catalog.add_table(
        TableBuilder::new("t")
            .nullable_col("fk", ColumnType::Int)
            .nullable_col("b", ColumnType::Int)
            .col("c", ColumnType::Float)
            .build(),
    );
    catalog.add_foreign_key(ForeignKey {
        name: "t_fk".into(),
        from_table: t,
        from_columns: vec![ColumnId(0)],
        to_table: r,
        to_columns: vec![ColumnId(0)],
    });
    Fixture { catalog, r, t }
}

fn enum_spec(f: &Fixture) -> EnumSpec {
    let ints = |vals: &[i64], with_null: bool| ColumnDomain {
        values: vals.iter().map(|&v| Value::Int(v)).collect(),
        with_null,
    };
    EnumSpec {
        tables: vec![
            TableSpec {
                table: f.r,
                columns: vec![
                    ints(&[1, 2], false),
                    ints(&[0, 7], true),
                    ColumnDomain {
                        values: vec![Value::Str("steel wire".into())],
                        with_null: true,
                    },
                ],
            },
            TableSpec {
                table: f.t,
                columns: vec![
                    ints(&[1, 2], true),
                    ints(&[0], true),
                    ColumnDomain {
                        values: vec![Value::Float(1.5)],
                        with_null: false,
                    },
                ],
            },
        ],
        max_rows: 2,
    }
}

/// A random scalar expression over the given wide arity.
fn gen_scalar(rng: &mut Rng, occs: &[(u32, u32)], depth: u32) -> ScalarExpr {
    if depth == 0 || rng.chance(50) {
        if rng.chance(70) {
            let &(occ, arity) = &occs[rng.below(occs.len() as u64) as usize];
            ScalarExpr::col(ColRef::new(occ, rng.below(arity as u64) as u32))
        } else {
            match rng.below(3) {
                0 => ScalarExpr::lit(rng.below(5) as i64 - 1),
                1 => ScalarExpr::lit(Value::Float(rng.below(4) as f64 / 2.0)),
                _ => ScalarExpr::lit(Value::Null),
            }
        }
    } else {
        let op = match rng.below(4) {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            _ => BinOp::Div,
        };
        gen_scalar(rng, occs, depth - 1).binary(op, gen_scalar(rng, occs, depth - 1))
    }
}

fn gen_bool(rng: &mut Rng, occs: &[(u32, u32)], depth: u32) -> BoolExpr {
    if depth == 0 || rng.chance(40) {
        match rng.below(4) {
            0 => {
                let op = match rng.below(6) {
                    0 => CmpOp::Lt,
                    1 => CmpOp::Le,
                    2 => CmpOp::Eq,
                    3 => CmpOp::Ge,
                    4 => CmpOp::Gt,
                    _ => CmpOp::Ne,
                };
                BoolExpr::cmp(gen_scalar(rng, occs, 1), op, gen_scalar(rng, occs, 1))
            }
            1 => BoolExpr::Like {
                expr: gen_scalar(rng, occs, 0),
                pattern: if rng.chance(50) { "%steel%" } else { "a%" }.into(),
                negated: rng.chance(30),
            },
            2 => BoolExpr::IsNull {
                expr: gen_scalar(rng, occs, 1),
                negated: rng.chance(50),
            },
            _ => BoolExpr::cmp(
                gen_scalar(rng, occs, 0),
                CmpOp::Le,
                ScalarExpr::lit(rng.below(4) as i64),
            ),
        }
    } else {
        let parts = vec![
            gen_bool(rng, occs, depth - 1),
            gen_bool(rng, occs, depth - 1),
        ];
        match rng.below(3) {
            0 => BoolExpr::and(parts),
            1 => BoolExpr::or(parts),
            _ => BoolExpr::Not(Box::new(gen_bool(rng, occs, depth - 1))),
        }
    }
}

fn gen_plan(rng: &mut Rng, f: &Fixture) -> SpjgExpr {
    // 1–2 occurrences drawn from {r, t}; arities 3 each.
    let n_occ = 1 + rng.below(2) as usize;
    let mut tables = Vec::new();
    let mut occs: Vec<(u32, u32)> = Vec::new();
    for i in 0..n_occ {
        let t = if rng.chance(50) { f.r } else { f.t };
        tables.push(t);
        occs.push((i as u32, 3));
    }
    let mut preds = Vec::new();
    if n_occ == 2 {
        // An equijoin between int columns keeps join cardinality sane and
        // exercises the key-consumption schedule.
        preds.push(BoolExpr::col_eq(
            ColRef::new(0, rng.below(2) as u32),
            ColRef::new(1, rng.below(2) as u32),
        ));
    }
    for _ in 0..rng.below(3) {
        preds.push(gen_bool(rng, &occs, 2));
    }
    let pred = BoolExpr::and(preds);
    if rng.chance(60) {
        let n_out = 1 + rng.below(3) as usize;
        let items = (0..n_out)
            .map(|i| NamedExpr::new(gen_scalar(rng, &occs, 2), format!("o{i}")))
            .collect();
        SpjgExpr::spj(tables, pred, items)
    } else {
        let n_keys = rng.below(3) as usize;
        let group_by = (0..n_keys)
            .map(|i| NamedExpr::new(gen_scalar(rng, &occs, 1), format!("g{i}")))
            .collect();
        let mut aggs = vec![NamedAgg::new(AggFunc::CountStar, "cnt")];
        for i in 0..rng.below(3) {
            let arg = gen_scalar(rng, &occs, 1);
            let func = if rng.chance(50) {
                AggFunc::Sum(arg)
            } else {
                AggFunc::SumZero(arg)
            };
            aggs.push(NamedAgg::new(func, format!("s{i}")));
        }
        SpjgExpr::aggregate(tables, pred, group_by, aggs)
    }
}

const PLANS: u64 = 60;
const DBS_PER_PLAN: u64 = 150;

#[test]
fn compiled_plan_matches_interpreter_over_enumerated_databases() {
    let f = fixture();
    let spec = enum_spec(&f);
    let checks: HashMap<TableId, Vec<Conjunct>> = HashMap::new();
    let enumerator = Enumerator::new(&f.catalog, &checks, &spec);
    let mut rng = Rng(0x5EED_D1FF);
    let mut scratch = ExecScratch::new();
    let mut bag = RowBag::new();
    let mut checked = 0u64;
    for plan_idx in 0..PLANS {
        let plan = gen_plan(&mut rng, &f);
        let prog = PlanProgram::compile(&plan);
        // Stride through the space so later (fuller) databases are hit too.
        let stride = 1 + plan_idx % 7;
        enumerator.for_each(DBS_PER_PLAN * stride, |seed, db| {
            if seed % stride != 0 {
                return true;
            }
            let want = execute_spjg(db, &plan);
            prog.execute(db, &mut scratch, &mut bag);
            let got = bag.to_rows();
            assert!(
                bag_eq(&got, &want),
                "plan {plan_idx} seed {seed}: {:?}\nplan: {plan:?}",
                bag_diff(&got, &want)
            );
            checked += 1;
            true
        });
    }
    assert!(checked > 2000, "differential coverage too thin: {checked}");
}

/// Every generated substitute runs through [`SubstitutePipeline`] twice,
/// each against the interpreter: over a view of bare columns (the fused
/// path, which filters the view's own join) and over the same view with
/// one output computed (the materialized path, which scans the view rows).
#[test]
fn compiled_substitute_matches_interpreter_over_enumerated_databases() {
    let f = fixture();
    let spec = enum_spec(&f);
    let checks: HashMap<TableId, Vec<Conjunct>> = HashMap::new();
    let enumerator = Enumerator::new(&f.catalog, &checks, &spec);
    let mut rng = Rng(0xBAC_0FF);
    let mut scratch = ExecScratch::new();
    let mut sbag = RowBag::new();
    // View: r's three columns; substitutes compensate over the view
    // outputs, optionally backjoining r through the pk in output 0.
    let col = |c: u32| ScalarExpr::col(ColRef::new(0, c));
    let bare = SpjgExpr::spj(
        vec![f.r],
        BoolExpr::Literal(true),
        vec![
            NamedExpr::new(col(0), "pk"),
            NamedExpr::new(col(1), "a"),
            NamedExpr::new(col(2), "s"),
        ],
    );
    let mut computed = bare.clone();
    if let OutputList::Spj(items) = &mut computed.output {
        items[1].expr = col(1).binary(BinOp::Add, ScalarExpr::lit(0i64));
    }
    let views = [("fused", &bare), ("materialized", &computed)];
    let mut checked = [0u64; 2];
    for sub_idx in 0..40u64 {
        let backjoin = rng.chance(50);
        // Substitute column space: 3 view outputs (+3 backjoined r cols).
        let occs: Vec<(u32, u32)> = vec![(0, if backjoin { 6 } else { 3 })];
        let backjoins = if backjoin {
            vec![BackJoin {
                table: f.r,
                key: vec![(0, ColumnId(0))],
            }]
        } else {
            vec![]
        };
        let mut predicates = Vec::new();
        for _ in 0..rng.below(3) {
            predicates.push(gen_bool(&mut rng, &occs, 2));
        }
        let output = if rng.chance(60) {
            OutputList::Spj(
                (0..1 + rng.below(2))
                    .map(|i| NamedExpr::new(gen_scalar(&mut rng, &occs, 2), format!("o{i}")))
                    .collect(),
            )
        } else {
            OutputList::Aggregate {
                group_by: (0..rng.below(2))
                    .map(|i| NamedExpr::new(gen_scalar(&mut rng, &occs, 1), format!("g{i}")))
                    .collect(),
                aggregates: vec![
                    NamedAgg::new(AggFunc::CountStar, "cnt"),
                    NamedAgg::new(AggFunc::Sum(gen_scalar(&mut rng, &occs, 1)), "s"),
                ],
            }
        };
        let sub = Substitute {
            view: ViewId(0),
            backjoins,
            predicates,
            output,
            freshness: mv_plan::Freshness::Fresh,
        };
        for ((path, view), checked) in views.iter().zip(&mut checked) {
            let pipe = SubstitutePipeline::compile(&f.catalog, view, &sub);
            enumerator.for_each(120, |seed, db| {
                let view_rows = execute_spjg(db, view);
                let want = execute_substitute_with(db, &view_rows, &sub);
                pipe.execute(db, &mut scratch, &mut sbag);
                let got = sbag.to_rows();
                assert!(
                    bag_eq(&got, &want),
                    "{path} sub {sub_idx} seed {seed}: {:?}\nsub: {sub:?}",
                    bag_diff(&got, &want)
                );
                *checked += 1;
                true
            });
        }
    }
    for ((path, _), checked) in views.iter().zip(checked) {
        assert!(checked > 2000, "{path} coverage too thin: {checked}");
    }
}

/// A backjoin has one meaning on every path: the interpreter, the
/// compiled pipeline (fused and materialized) and the plan the optimizer
/// serves for a substitute, `ViewScan → HashJoin → Filter → Project`, all
/// join a view row to every base row with its key, and a NULL key to none.
/// Both databases break a declared constraint of `r` so that the meaning
/// shows: one holds two rows with pk 1, the other a NULL pk beside a view
/// row whose key is NULL.
#[test]
fn a_backjoin_means_the_served_hash_join_on_every_path() {
    let f = fixture();
    let col = |c: u32| ScalarExpr::col(ColRef::new(0, c));
    let (int, s, null) = (Value::Int, |x: &str| Value::Str(x.into()), Value::Null);
    // View over t, all three columns; the substitute backjoins r on the
    // view's fk and keeps the rows whose r.a is at least 0.
    let bare = SpjgExpr::spj(
        vec![f.t],
        BoolExpr::Literal(true),
        vec![
            NamedExpr::new(col(0), "fk"),
            NamedExpr::new(col(1), "b"),
            NamedExpr::new(col(2), "c"),
        ],
    );
    let mut computed = bare.clone();
    if let OutputList::Spj(items) = &mut computed.output {
        items[1].expr = col(1).binary(BinOp::Add, ScalarExpr::lit(0i64));
    }
    let predicate = BoolExpr::cmp(col(4), CmpOp::Ge, ScalarExpr::lit(0i64));
    let outputs = [col(0), col(4), col(5)];
    let sub = Substitute {
        view: ViewId(0),
        backjoins: vec![BackJoin {
            table: f.r,
            key: vec![(0, ColumnId(0))],
        }],
        predicates: vec![predicate.clone()],
        output: OutputList::Spj(
            (outputs.iter().enumerate())
                .map(|(i, e)| NamedExpr::new(e.clone(), format!("o{i}")))
                .collect(),
        ),
        freshness: mv_plan::Freshness::Fresh,
    };
    let served = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(PhysicalPlan::ViewScan { view: ViewId(0) }),
                right: Box::new(PhysicalPlan::TableScan { table: f.r }),
                left_keys: vec![0],
                right_keys: vec![0],
                residual: None,
            }),
            predicate,
        }),
        exprs: outputs.to_vec(),
    };
    let duplicated_key = (
        vec![
            vec![int(1), int(0), s("steel wire")],
            vec![int(1), int(7), null.clone()],
            vec![int(2), int(7), null.clone()],
        ],
        vec![
            vec![int(1), int(0), Value::Float(1.5)],
            vec![int(2), null.clone(), Value::Float(1.5)],
        ],
        vec![
            vec![int(1), int(0), s("steel wire")],
            vec![int(1), int(7), null.clone()],
            vec![int(2), int(7), null.clone()],
        ],
    );
    let null_key = (
        vec![
            vec![null.clone(), int(7), s("steel wire")],
            vec![int(1), int(0), null.clone()],
        ],
        vec![
            vec![null.clone(), int(0), Value::Float(1.5)],
            vec![int(1), int(0), Value::Float(1.5)],
        ],
        vec![vec![int(1), int(0), null.clone()]],
    );
    let mut scratch = ExecScratch::new();
    let mut bag = RowBag::new();
    for (label, (r_rows, t_rows, want)) in
        [("duplicated key", duplicated_key), ("NULL key", null_key)]
    {
        let mut db = Database::new(f.catalog.clone());
        db.load(f.r, r_rows);
        db.load(f.t, t_rows);
        for view in [&bare, &computed] {
            let view_rows = execute_spjg(&db, view);
            let mut store = ViewStore::new();
            store.put(ViewId(0), view_rows.clone());
            SubstitutePipeline::compile(&f.catalog, view, &sub).execute(
                &db,
                &mut scratch,
                &mut bag,
            );
            let paths = [
                (
                    "interpreter",
                    execute_substitute_with(&db, &view_rows, &sub),
                ),
                ("pipeline", bag.to_rows()),
                ("served plan", execute_plan(&db, &store, &served)),
            ];
            for (path, got) in paths {
                assert!(
                    bag_eq(&got, &want),
                    "{label}, {path}: {:?}",
                    bag_diff(&got, &want)
                );
            }
        }
    }
}

/// Same join, permuted occurrences: an aggregate query over
/// `orders ⋈ lineitem` and an SPJ view over `lineitem ⋈ orders` number
/// their occurrences in opposite orders and spell the equijoin both ways
/// round. Each side runs its own join — the query through
/// [`PlanProgram::execute`], the substitute fused through
/// [`SubstitutePipeline::execute`] — and each must agree with the
/// interpreter; the pair is equivalent, so the two bags also agree with
/// each other.
#[test]
fn permuted_occurrence_pair_matches_interpreter_on_both_sides() {
    let (db, t) = generate_tpch(&TpchScale::tiny(), 29);
    let col = |occ: u32, c: u32| ScalarExpr::col(ColRef::new(occ, c));
    let query = SpjgExpr::aggregate(
        vec![t.orders, t.lineitem],
        BoolExpr::col_eq(ColRef::new(0, 0), ColRef::new(1, 0)),
        vec![NamedExpr::new(col(0, 1), "o_custkey")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(col(1, 4)), "qty"),
        ],
    );
    let view = SpjgExpr::spj(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(ColRef::new(1, 0), ColRef::new(0, 0)),
        vec![
            NamedExpr::new(col(0, 0), "l_orderkey"),
            NamedExpr::new(col(0, 4), "l_quantity"),
            NamedExpr::new(col(1, 1), "o_custkey"),
        ],
    );
    let sub = Substitute {
        view: ViewId(0),
        backjoins: vec![],
        predicates: vec![],
        output: OutputList::Aggregate {
            group_by: vec![NamedExpr::new(col(0, 2), "o_custkey")],
            aggregates: vec![
                NamedAgg::new(AggFunc::CountStar, "cnt"),
                NamedAgg::new(AggFunc::Sum(col(0, 1)), "qty"),
            ],
        },
        freshness: mv_plan::Freshness::Fresh,
    };
    let mut scratch = ExecScratch::new();
    let (mut qbag, mut sbag) = (RowBag::new(), RowBag::new());
    PlanProgram::compile(&query).execute(&db, &mut scratch, &mut qbag);
    SubstitutePipeline::compile(&db.catalog, &view, &sub).execute(&db, &mut scratch, &mut sbag);
    let want_query = execute_spjg(&db, &query);
    let want_sub = execute_substitute_with(&db, &execute_spjg(&db, &view), &sub);
    assert!(!want_query.is_empty());
    let (got_query, got_sub) = (qbag.to_rows(), sbag.to_rows());
    assert!(
        bag_eq(&got_query, &want_query),
        "query: {:?}",
        bag_diff(&got_query, &want_query)
    );
    assert!(
        bag_eq(&got_sub, &want_sub),
        "substitute: {:?}",
        bag_diff(&got_sub, &want_sub)
    );
    assert!(
        bag_eq(&got_sub, &got_query),
        "pair: {:?}",
        bag_diff(&got_sub, &got_query)
    );
}

/// A seeded bag of delta rows for fixture table `table`: 0–3 rows from a
/// domain wider than the enumerated one (a key no stored row has, NULL
/// join keys), then — half the time — the first row once more, so
/// duplicate delta rows are common.
fn gen_delta(rng: &mut Rng, f: &Fixture, table: TableId) -> Vec<Vec<Value>> {
    let int_or_null = |rng: &mut Rng, vals: &[i64]| match rng.below(vals.len() as u64 + 1) {
        0 => Value::Null,
        i => Value::Int(vals[i as usize - 1]),
    };
    let mut rows: Vec<Vec<Value>> = (0..rng.below(4))
        .map(|_| {
            if table == f.r {
                vec![
                    Value::Int(1 + rng.below(3) as i64),
                    int_or_null(rng, &[0, 7]),
                    if rng.chance(50) {
                        Value::Str("steel wire".into())
                    } else {
                        Value::Null
                    },
                ]
            } else {
                vec![
                    int_or_null(rng, &[1, 2, 3]),
                    int_or_null(rng, &[0]),
                    Value::Float(1.5),
                ]
            }
        })
        .collect();
    if !rows.is_empty() && rng.chance(50) {
        rows.push(rows[0].clone());
    }
    rows
}

/// The delta schedule of every occurrence of every generated plan,
/// executed over a borrowed delta, against the interpreter over the same
/// plan with that occurrence reading a stand-in table that holds the
/// delta rows. The stand-in makes the reference per *occurrence*, so
/// self-joins are covered too (swapping the table's stored rows would
/// replace both occurrences at once).
#[test]
fn delta_program_matches_interpreter_with_the_occurrence_swapped() {
    let f = fixture();
    let spec = enum_spec(&f);
    let checks: HashMap<TableId, Vec<Conjunct>> = HashMap::new();
    let enumerator = Enumerator::new(&f.catalog, &checks, &spec);
    // The same schema plus one stand-in per table, for the reference.
    let mut swapped_catalog = f.catalog.clone();
    let stand_in: HashMap<TableId, TableId> = [(f.r, "r_delta"), (f.t, "t_delta")]
        .into_iter()
        .map(|(table, name)| {
            let mut def = f.catalog.table(table).clone();
            def.name = name.into();
            (table, swapped_catalog.add_table(def))
        })
        .collect();
    let mut rng = Rng(0xDE17A);
    let mut scratch = ExecScratch::new();
    let mut bag = RowBag::new();
    let (mut checked, mut empty, mut duplicated, mut null_keyed) = (0u64, 0u64, 0u64, 0u64);
    for plan_idx in 0..PLANS {
        let plan = gen_plan(&mut rng, &f);
        let stride = 1 + plan_idx % 7;
        for (occ, &table) in plan.tables.iter().enumerate() {
            let prog = PlanProgram::compile_delta(&plan, occ);
            let mut swapped = plan.clone();
            swapped.tables[occ] = stand_in[&table];
            enumerator.for_each(40 * stride, |seed, db| {
                if seed % stride != 0 {
                    return true;
                }
                let delta = gen_delta(&mut rng, &f, table);
                empty += delta.is_empty() as u64;
                duplicated += (delta.len() > 1 && delta.last() == delta.first()) as u64;
                null_keyed += delta.iter().any(|r| r[0].is_null() || r[1].is_null()) as u64;
                let mut reference = Database::new(swapped_catalog.clone());
                reference.load(f.r, db.rows(f.r).to_vec());
                reference.load(f.t, db.rows(f.t).to_vec());
                reference.load(stand_in[&table], delta.clone());
                let want = execute_spjg(&reference, &swapped);
                // A fresh index set: each enumerated database is new data.
                prog.execute_delta(db, &delta, &mut JoinIndexes::new(), &mut scratch, &mut bag);
                let got = bag.to_rows();
                assert!(
                    bag_eq(&got, &want),
                    "plan {plan_idx} occurrence {occ} seed {seed} delta {delta:?}: {:?}\nplan: {plan:?}",
                    bag_diff(&got, &want)
                );
                checked += 1;
                true
            });
        }
    }
    assert!(checked > 2000, "differential coverage too thin: {checked}");
    for (what, n) in [
        ("empty", empty),
        ("duplicated", duplicated),
        ("NULL-keyed", null_keyed),
    ] {
        assert!(n > 100, "only {n} {what} deltas");
    }
}

/// Directed SQL-semantics pin: `SUM` over an all-NULL group is NULL (not
/// 0), a group emptied by the predicate vanishes entirely, and a *scalar*
/// aggregate over empty input still yields its one row with `COUNT(*)` 0,
/// `SUM` NULL and `SumZero` 0 — identically in the tree-walk interpreter
/// and the compiled program, whose `arg_col` fast path (bare-column sum
/// argument) and `fast_cmp` predicate path both fire here. Incremental
/// maintenance makes emptied and all-NULL groups common, so these cases
/// are pinned directly instead of hoping the random sweep hits them.
#[test]
fn sum_null_semantics_match_between_paths() {
    let f = fixture();
    let mut db = Database::new(f.catalog.clone());
    // t(fk, b, c): three groups keyed on fk.
    //   fk=1 — both b NULL: COUNT(*)=2, SUM(b)=NULL.
    //   fk=2 — b ∈ {5, NULL}: COUNT(*)=2, SUM(b)=5.
    //   fk=3 — its only row rejected by the b < 10 predicate: no group.
    db.load(
        f.t,
        vec![
            vec![Value::Int(1), Value::Null, Value::Float(0.0)],
            vec![Value::Int(1), Value::Null, Value::Float(0.0)],
            vec![Value::Int(2), Value::Int(5), Value::Float(0.0)],
            vec![Value::Int(2), Value::Null, Value::Float(0.0)],
            vec![Value::Int(3), Value::Int(50), Value::Float(0.0)],
        ],
    );
    let col = |c: u32| ScalarExpr::col(ColRef::new(0, c));
    let grouped_all = SpjgExpr::aggregate(
        vec![f.t],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(col(0), "fk")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(col(1)), "sum_b"),
        ],
    );
    let grouped_filtered = SpjgExpr::aggregate(
        vec![f.t],
        BoolExpr::cmp(col(1), CmpOp::Lt, ScalarExpr::lit(10i64)),
        vec![NamedExpr::new(col(0), "fk")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(col(1)), "sum_b"),
        ],
    );
    let scalar_empty = SpjgExpr::aggregate(
        vec![f.t],
        BoolExpr::cmp(col(1), CmpOp::Lt, ScalarExpr::lit(-100i64)),
        vec![],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(col(1)), "sum_b"),
            NamedAgg::new(AggFunc::SumZero(col(1)), "sum0_b"),
        ],
    );
    let mut scratch = ExecScratch::new();
    let mut bag = RowBag::new();
    let mut check = |plan: &SpjgExpr, want: &[Vec<Value>], label: &str| {
        let interp = execute_spjg(&db, plan);
        assert!(
            bag_eq(&interp, want),
            "{label} interpreter: {:?}",
            bag_diff(&interp, want)
        );
        let prog = PlanProgram::compile(plan);
        prog.execute(&db, &mut scratch, &mut bag);
        let got = bag.to_rows();
        assert!(
            bag_eq(&got, want),
            "{label} compiled: {:?}",
            bag_diff(&got, want)
        );
    };
    check(
        &grouped_all,
        &[
            vec![Value::Int(1), Value::Int(2), Value::Null],
            vec![Value::Int(2), Value::Int(2), Value::Int(5)],
            vec![Value::Int(3), Value::Int(1), Value::Int(50)],
        ],
        "all-NULL group",
    );
    check(
        &grouped_filtered,
        // fk=1 gone (NULL b fails b < 10), fk=3 gone (50 fails): only the
        // fk=2 row with b=5 survives its group.
        &[vec![Value::Int(2), Value::Int(1), Value::Int(5)]],
        "emptied groups",
    );
    check(
        &scalar_empty,
        &[vec![Value::Int(0), Value::Null, Value::Int(0)]],
        "scalar aggregate over empty input",
    );
}
