//! A verdict is its substitute without the building: for every query and
//! candidate view, `find_verdicts` has a verdict exactly when
//! `build_substitute` builds a substitute, and the verdict holds exactly
//! what the optimizer's cost reads off that substitute — the view's rows,
//! the backjoined tables in order, whether any compensating predicate is
//! left, and whether the output regroups. The optimizer's debug builds
//! assert a verdict's cost equals its built substitute's; this suite also
//! runs in release mode, where that assertion is compiled out.

use mv_catalog::tpch::{tpch_catalog, TpchTables};
use mv_core::{MatchConfig, MatchingEngine, Verdict};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::{card, AggFunc, NamedAgg, NamedExpr, OutputList, SpjgExpr, Substitute, ViewDef};
use mv_plan::{ViewId, ViewSet};
use mv_workload::{Generator, WorkloadParams};

// The §5 workload of `plan_digest.rs`.
const VIEW_SEED: u64 = 0x5EC5_0001;
const QUERY_SEED: u64 = 0x5EC5_0002;

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

fn out(cols: &[(u32, u32)]) -> Vec<NamedExpr> {
    cols.iter()
        .map(|&(o, c)| NamedExpr::new(S::col(cr(o, c)), format!("t{o}c{c}")))
        .collect()
}

fn cmp(c: ColRef, op: CmpOp, v: i64) -> BoolExpr {
    BoolExpr::cmp(S::col(c), op, S::lit(v))
}

/// The verdict must be what the optimizer's cost reads off `sub`.
fn assert_stands_for(
    engine: &MatchingEngine,
    views: &ViewSet,
    verdict: &Verdict,
    sub: &Substitute,
) {
    let id = sub.view;
    assert_eq!(verdict.view, id);
    assert_eq!(
        verdict.rows.to_bits(),
        card::estimate_rows(&views.get(id).expr, engine.catalog()).to_bits(),
        "{id:?}: rows"
    );
    let tables: Vec<_> = sub.backjoins.iter().map(|bj| bj.table).collect();
    assert_eq!(
        verdict.backjoins, tables,
        "{id:?}: backjoin tables in order"
    );
    assert_eq!(
        verdict.filters,
        !sub.predicates.is_empty(),
        "{id:?}: filters"
    );
    assert_eq!(
        verdict.regroups,
        matches!(sub.output, OutputList::Aggregate { .. }),
        "{id:?}: regroups"
    );
}

/// Check every candidate of `query`, and that the verdicts name the views
/// `find_substitutes` returns, in its order, each one building under the
/// pin the verdicts were found under. Returns the verdicts.
fn check(engine: &MatchingEngine, query: &SpjgExpr, candidates: &[ViewId]) -> Vec<Verdict> {
    let pin = engine.views();
    let verdicts = engine.find_verdicts(&pin, query);
    let subs = engine.find_substitutes(query);
    let ids: Vec<ViewId> = verdicts.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, subs.iter().map(|(id, _)| *id).collect::<Vec<_>>());
    for &id in candidates {
        let verdict = verdicts.iter().find(|(v, _)| *v == id).map(|(_, v)| v);
        match (verdict, engine.build_substitute(&pin, query, id)) {
            (None, None) => {}
            (Some(verdict), Some(sub)) => assert_stands_for(engine, &pin, verdict, &sub),
            (verdict, sub) => {
                panic!("{id:?}: verdict {verdict:?} but built {sub:?} for\n{query:?}",)
            }
        }
    }
    verdicts.into_iter().map(|(_, v)| v).collect()
}

/// Every view of the engine as a candidate.
fn every_view(engine: &MatchingEngine) -> Vec<ViewId> {
    engine.views().iter().map(|(id, _)| id).collect()
}

/// Occurrence `o` of `query` on its own: its table, the conjuncts local
/// to it and, as outputs, every column of it the query references — the
/// leaf blocks the optimizer's memo offers the view-matching rule.
fn leaf_block(query: &SpjgExpr, o: u32) -> SpjgExpr {
    let mut to_leaf = |c: ColRef| (c.occ.0 == o).then_some(cr(0, c.col.0));
    let conjuncts = query
        .conjuncts
        .iter()
        .filter_map(|c| c.try_map_columns(&mut to_leaf))
        .collect();
    let mut cols: Vec<ColRef> = query
        .referenced_columns()
        .into_iter()
        .filter_map(to_leaf)
        .collect();
    cols.sort();
    cols.dedup();
    let output = cols
        .iter()
        .map(|&c| NamedExpr::new(S::col(c), format!("c{}", c.col.0)))
        .collect();
    SpjgExpr {
        tables: vec![query.tables[o as usize]],
        conjuncts,
        output: OutputList::Spj(output),
    }
}

#[test]
fn verdicts_stand_for_the_substitutes_of_the_section_5_workload() {
    let (catalog, _) = tpch_catalog();
    let views = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(200);
    let queries = Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(60);
    let engine = MatchingEngine::new(catalog, MatchConfig::default());
    engine.add_views(views).unwrap();

    // The workload's queries, their leaf blocks, and every view's own
    // block, which at least that view answers.
    let leaves = queries
        .iter()
        .flat_map(|q| (0..q.tables.len() as u32).map(|o| leaf_block(q, o)));
    let blocks: Vec<SpjgExpr> = leaves
        .chain(queries.iter().cloned())
        .chain(engine.views().iter().map(|(_, v)| v.expr.clone()))
        .collect();
    let mut verdicts = Vec::new();
    for block in &blocks {
        let qsum = engine.query_summary(block);
        verdicts.extend(check(&engine, block, &engine.candidates(block, &qsum)));
    }
    // The workload's matches need no compensation (the hand-built cases
    // below cover that), but both output shapes occur.
    assert!(verdicts.len() >= 500, "{} verdicts", verdicts.len());
    assert!(verdicts.iter().any(|v| !v.filters));
    assert!(verdicts.iter().any(|v| v.regroups));
    assert!(verdicts.iter().any(|v| !v.regroups));
}

fn backjoin_engine() -> (MatchingEngine, TpchTables) {
    let (catalog, t) = tpch_catalog();
    let config = MatchConfig {
        allow_backjoins: true,
        ..MatchConfig::default()
    };
    (MatchingEngine::new(catalog, config), t)
}

#[test]
fn backjoins_keep_their_activation_order() {
    let (engine, t) = backjoin_engine();
    // lineitem ⋈ orders with both keys and nothing else.
    let li_ord = BoolExpr::col_eq(cr(0, 0), cr(1, 0));
    engine
        .add_view(ViewDef::new(
            "keys",
            SpjgExpr::spj(
                vec![t.lineitem, t.orders],
                li_ord.clone(),
                out(&[(0, 0), (0, 3), (1, 0)]),
            ),
        ))
        .unwrap();
    // Lineitem with its key and quantity, for a range and a residual over
    // a backjoined column.
    engine
        .add_view(ViewDef::new(
            "li_slim",
            SpjgExpr::spj(
                vec![t.lineitem],
                cmp(cr(0, 4), CmpOp::Gt, 10),
                out(&[(0, 0), (0, 3), (0, 4)]),
            ),
        ))
        .unwrap();
    let all = every_view(&engine);

    // o_totalprice is placed before l_extendedprice: orders first.
    let q = SpjgExpr::spj(
        vec![t.lineitem, t.orders],
        li_ord.clone(),
        out(&[(1, 3), (0, 5)]),
    );
    let v = check(&engine, &q, &all);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].backjoins, vec![t.orders, t.lineitem]);
    assert!(!v[0].filters, "the view's join is the query's");
    // ... and the other way round.
    let q = SpjgExpr::spj(vec![t.lineitem, t.orders], li_ord, out(&[(0, 5), (1, 3)]));
    assert_eq!(
        check(&engine, &q, &all)[0].backjoins,
        vec![t.lineitem, t.orders]
    );

    // A range on a view column and a `<>` on a backjoined one: both are
    // left to compensate.
    let q = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::and(vec![
            cmp(cr(0, 4), CmpOp::Gt, 10),
            cmp(cr(0, 4), CmpOp::Le, 30),
            cmp(cr(0, 5), CmpOp::Ne, 5),
        ]),
        out(&[(0, 0), (0, 5)]),
    );
    let v = check(&engine, &q, &all);
    let slim = v.iter().find(|v| v.view == ViewId(1)).unwrap();
    assert_eq!(slim.backjoins, vec![t.lineitem]);
    assert!(slim.filters, "{slim:?}");
}

#[test]
fn rollups_regroup_and_exact_groupings_do_not() {
    let (catalog, t) = tpch_catalog();
    let engine = MatchingEngine::new(catalog, MatchConfig::default());
    let count = NamedAgg::new(AggFunc::CountStar, "n");
    let qty = NamedAgg::new(AggFunc::Sum(S::col(cr(0, 4))), "q");
    // Grouped by (l_orderkey, l_partkey), and an SPJ view of the same rows.
    engine
        .add_view(ViewDef::new(
            "by_order_part",
            SpjgExpr::aggregate(
                vec![t.lineitem],
                BoolExpr::Literal(true),
                out(&[(0, 0), (0, 1)]),
                vec![count.clone(), qty.clone()],
            ),
        ))
        .unwrap();
    engine
        .add_view(ViewDef::new(
            "lines",
            SpjgExpr::spj(
                vec![t.lineitem],
                BoolExpr::Literal(true),
                out(&[(0, 0), (0, 1), (0, 2), (0, 4)]),
            ),
        ))
        .unwrap();
    let all = every_view(&engine);
    let by_view = |v: &[Verdict], id: u32| v.iter().find(|v| v.view == ViewId(id)).cloned();

    // The view's own grouping: no regroup from the aggregation view, a
    // grouping over the SPJ view.
    let exact = SpjgExpr::aggregate(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        out(&[(0, 0), (0, 1)]),
        vec![count.clone(), qty.clone()],
    );
    let v = check(&engine, &exact, &all);
    let own = by_view(&v, 0).unwrap();
    assert!(!own.regroups && !own.filters, "{own:?}");
    assert!(by_view(&v, 1).unwrap().regroups);

    // Coarser, with an equality on a grouping column: a rollup that
    // filters on the view's l_partkey output.
    let coarser = SpjgExpr::aggregate(
        vec![t.lineitem],
        cmp(cr(0, 1), CmpOp::Eq, 7),
        out(&[(0, 0)]),
        vec![count, qty],
    );
    let v = check(&engine, &coarser, &all);
    let rollup = by_view(&v, 0).unwrap();
    assert!(rollup.regroups && rollup.filters, "{rollup:?}");
    assert!(by_view(&v, 1).unwrap().regroups);

    // A compensating column equality filters; an SPJ query cannot use
    // the aggregation view.
    let q = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::col_eq(cr(0, 1), cr(0, 2)),
        out(&[(0, 0)]),
    );
    let v = check(&engine, &q, &all);
    assert_eq!(v.len(), 1);
    assert!(v[0].filters && !v[0].regroups);
}
