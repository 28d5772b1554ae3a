//! The matcher's per-query FK join graph (section 3.2) is derived from the
//! join core's, not rebuilt: `FkGraph::renamed` maps the core's edges into
//! query space and drops those whose nullable FK columns the query does not
//! null-reject. It must give exactly the graph the rebuild gives —
//! `build_fk_graph` over the core's classes rebased into query space under
//! the per-query nullable rule — edge for edge and in the same order, so
//! that elimination deletes the same tables and replays the same join
//! conditions into the query's classes. The rebuild is kept here as the
//! reference.

use mv_catalog::schema::{ForeignKey, TableBuilder};
use mv_catalog::tpch::tpch_catalog;
use mv_catalog::{Catalog, ColumnId, ColumnType, TableId};
use mv_core::fkgraph::{build_fk_graph, eliminate};
use mv_core::{ExprSummary, MatchConfig, PreparedView};
use mv_expr::{BoolExpr, CmpOp, ColRef, EquivClasses, OccId, ScalarExpr as S};
use mv_plan::{NamedExpr, SpjgExpr};
use mv_workload::{Generator, WorkloadParams};

const VIEW_SEED: u64 = 7;
const QUERY_SEED: u64 = 11;

/// The matcher's cap on occurrence mappings per (query, core).
const MAX_MAPPINGS: usize = 64;

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

fn spj(tables: Vec<TableId>, pred: BoolExpr) -> SpjgExpr {
    SpjgExpr::spj(tables, pred, vec![NamedExpr::new(S::col(cr(0, 0)), "k")])
}

/// Every injective assignment of query occurrences to view occurrences of
/// the same base table (`assign[view occ]`, `None` = extra table), at most
/// [`MAX_MAPPINGS`].
fn mappings(query: &[TableId], view: &[TableId]) -> Vec<Vec<Option<OccId>>> {
    fn rec(
        query: &[TableId],
        view: &[TableId],
        assign: &mut Vec<Option<OccId>>,
        out: &mut Vec<Vec<Option<OccId>>>,
    ) {
        let q = assign.iter().flatten().count();
        if q == query.len() {
            out.push(assign.clone());
            return;
        }
        for v in 0..view.len() {
            if out.len() >= MAX_MAPPINGS {
                return;
            }
            if assign[v].is_none() && view[v] == query[q] {
                assign[v] = Some(OccId(q as u32));
                rec(query, view, assign, out);
                assign[v] = None;
            }
        }
    }
    let mut out = Vec::new();
    rec(query, view, &mut vec![None; view.len()], &mut out);
    out
}

/// What one call of [`check`] saw.
#[derive(Default)]
struct Seen {
    /// (query, core, mapping) triples compared.
    mappings: usize,
    /// Of those, with at least one edge in the query-space graph.
    with_edges: usize,
    /// Of those, where the core had an edge the query's nullable rule
    /// drops.
    with_dropped: usize,
}

/// Compare the derived graph with the rebuilt one, and elimination over
/// each, for every occurrence mapping of `query` into `view`'s join core.
fn check(catalog: &Catalog, config: &MatchConfig, query: &SpjgExpr, view: &SpjgExpr) -> Seen {
    let qsum = ExprSummary::analyze(query);
    let pv = PreparedView::prepare(catalog, config, view);
    let core = &pv.core;
    let nq = query.tables.len() as u32;
    let nullable_ok =
        |c: ColRef| config.null_rejecting_fk && c.occ.0 < nq && qsum.is_null_rejecting(c);
    let mut seen = Seen::default();
    for assign in mappings(&query.tables, &core.tables) {
        let mut occ_map = Vec::new();
        let mut extras = Vec::new();
        for a in &assign {
            occ_map.push(a.unwrap_or_else(|| {
                let fresh = OccId(nq + extras.len() as u32);
                extras.push(fresh);
                fresh
            }));
        }
        let rename = |c: ColRef| ColRef {
            occ: occ_map[c.occ.0 as usize],
            col: c.col,
        };

        // The reference: rebase the core's classes, rebuild the graph.
        let mut rebased = EquivClasses::new();
        for class in &core.classes {
            for pair in class.windows(2) {
                rebased.union(rename(pair[0]), rename(pair[1]));
            }
        }
        let occs: Vec<(OccId, TableId)> = occ_map
            .iter()
            .copied()
            .zip(core.tables.iter().copied())
            .collect();
        let rebuilt = build_fk_graph(catalog, &occs, &rebased, &nullable_ok);

        let derived = core.fk_graph.renamed(catalog, &occ_map, &nullable_ok);
        let context = || format!("query {query:?}\nview {view:?}\nmapping {assign:?}");
        assert_eq!(derived.occs, rebuilt.occs, "{}", context());
        assert_eq!(derived.edges, rebuilt.edges, "{}", context());

        let deletable = |o: OccId| extras.contains(&o);
        let from_derived = eliminate(&derived, &deletable);
        let from_rebuilt = eliminate(&rebuilt, &deletable);
        assert_eq!(
            from_derived.remaining,
            from_rebuilt.remaining,
            "{}",
            context()
        );
        assert_eq!(
            from_derived.deleted_edges,
            from_rebuilt.deleted_edges,
            "{}",
            context()
        );

        seen.mappings += 1;
        seen.with_edges += usize::from(!derived.edges.is_empty());
        seen.with_dropped += usize::from(derived.edges.len() < core.fk_graph.edges.len());
    }
    seen
}

fn configs() -> [MatchConfig; 2] {
    [false, true].map(|null_rejecting_fk| MatchConfig {
        null_rejecting_fk,
        ..MatchConfig::default()
    })
}

#[test]
fn derived_graph_equals_rebuild_on_generated_workload() {
    let (catalog, _) = tpch_catalog();
    let views = Generator::new(&catalog, WorkloadParams::views(), VIEW_SEED).views(1000);
    let queries = Generator::new(&catalog, WorkloadParams::queries(), QUERY_SEED).queries(200);
    for config in configs() {
        let (mut compared, mut with_edges, mut with_extras) = (0, 0, 0);
        for query in &queries {
            for view in &views {
                let seen = check(&catalog, &config, query, &view.expr);
                compared += seen.mappings;
                with_edges += seen.with_edges;
                with_extras +=
                    seen.mappings * usize::from(view.expr.tables.len() > query.tables.len());
            }
        }
        // The workload must reach the derivation with real graphs, not
        // only empty ones.
        assert!(compared > 1000, "only {compared} mappings compared");
        assert!(with_edges > 100, "only {with_edges} mappings with edges");
        assert!(with_extras > 100, "only {with_extras} mappings with extras");
    }
}

#[test]
fn derived_graph_equals_rebuild_on_example3_chain() {
    // lineitem ⋈ orders ⋈ customer on l_orderkey = o_orderkey and
    // o_custkey = c_custkey; the query reads lineitem alone, so orders and
    // customer are extra tables eliminated through the chain.
    let (catalog, t) = tpch_catalog();
    let view = spj(
        vec![t.lineitem, t.orders, t.customer],
        BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::col_eq(cr(1, 1), cr(2, 0)),
        ]),
    );
    let query = spj(vec![t.lineitem], BoolExpr::Literal(true));
    for config in configs() {
        let seen = check(&catalog, &config, &query, &view);
        assert_eq!((seen.mappings, seen.with_edges), (1, 1));
    }
}

#[test]
fn derived_graph_equals_rebuild_on_a_self_join_core() {
    // Two orders occurrences, both joined to lineitem, the second also to
    // customer: the query's orders maps to either, and the other is extra.
    let (catalog, t) = tpch_catalog();
    let view = spj(
        vec![t.lineitem, t.orders, t.orders, t.customer],
        BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::col_eq(cr(0, 0), cr(2, 0)),
            BoolExpr::col_eq(cr(2, 1), cr(3, 0)),
        ]),
    );
    let query = spj(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
    );
    for config in configs() {
        let seen = check(&catalog, &config, &query, &view);
        assert_eq!((seen.mappings, seen.with_edges), (2, 2));
    }
}

#[test]
fn derived_graph_equals_rebuild_on_example5_nullable_fk() {
    // t(f nullable, g) -> s(k): the edge t -> s stands only under the
    // section 3.2 extension, and only for a query that null-rejects t.f.
    let mut catalog = Catalog::new();
    let tid = catalog.add_table(
        TableBuilder::new("t")
            .nullable_col("f", ColumnType::Int)
            .col("g", ColumnType::Int)
            .build(),
    );
    let sid = catalog.add_table(
        TableBuilder::new("s")
            .col("k", ColumnType::Int)
            .primary_key(&["k"])
            .build(),
    );
    catalog.add_foreign_key(ForeignKey {
        name: "t_f".into(),
        from_table: tid,
        from_columns: vec![ColumnId(0)],
        to_table: sid,
        to_columns: vec![ColumnId(0)],
    });
    let view = spj(vec![tid, sid], BoolExpr::col_eq(cr(0, 0), cr(1, 0)));
    let f = || S::col(cr(0, 0));
    let rejecting = [
        BoolExpr::cmp(f(), CmpOp::Gt, S::lit(5i64)),
        BoolExpr::IsNull {
            expr: f(),
            negated: true,
        },
    ];
    let not_rejecting = [
        BoolExpr::Literal(true),
        BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Gt, S::lit(5i64)),
    ];
    for config in configs() {
        for pred in &rejecting {
            let seen = check(&catalog, &config, &spj(vec![tid], pred.clone()), &view);
            let kept = usize::from(config.null_rejecting_fk);
            assert_eq!((seen.mappings, seen.with_edges), (1, kept));
        }
        for pred in &not_rejecting {
            let seen = check(&catalog, &config, &spj(vec![tid], pred.clone()), &view);
            assert_eq!((seen.mappings, seen.with_edges), (1, 0));
            // Under the extension the core holds the edge and this query's
            // rule drops it.
            assert_eq!(seen.with_dropped, usize::from(config.null_rejecting_fk));
        }
    }
}
