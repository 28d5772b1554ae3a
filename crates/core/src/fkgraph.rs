//! The foreign-key join graph and cardinality-preserving-join elimination
//! of section 3.2, plus the hub computation of section 4.2.2.
//!
//! "A join between tables T and S is cardinality preserving if every row in
//! T joins with exactly one row in S. ... An equijoin between all columns
//! in a non-null foreign key in T and a unique key in S has this property."
//!
//! Nodes are table *occurrences*; there is an edge `Ti -> Tj` if the
//! expression specifies (directly or transitively, i.e. via equivalence
//! classes) an equijoin between all columns of a foreign key of `Ti` and
//! the referenced unique key of `Tj`, and the foreign-key columns are
//! non-null (or, with the section 3.2 extension enabled, covered by a
//! null-rejecting query predicate).

use mv_catalog::{Catalog, TableId};
use mv_expr::{ColRef, EquivClasses, OccId};

/// One cardinality-preserving join edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FkEdge {
    /// Referencing occurrence (the table being extended).
    pub from: OccId,
    /// Referenced occurrence (the table that can be absorbed).
    pub to: OccId,
    /// `(foreign key column on from, unique key column on to)` pairs.
    pub col_pairs: Vec<(ColRef, ColRef)>,
}

/// The foreign-key join graph of one expression.
#[derive(Debug, Clone)]
pub struct FkGraph {
    /// The occurrences (nodes), with their base tables.
    pub occs: Vec<(OccId, TableId)>,
    /// The cardinality-preserving edges.
    pub edges: Vec<FkEdge>,
}

/// Build the graph. `ec` is the expression's column equivalence classes —
/// "to capture transitive equijoin conditions correctly we must use the
/// equivalence classes when adding edges".
///
/// `nullable_ok` decides whether a *nullable* foreign-key column may still
/// support an edge (the Example 5 extension: a null-rejecting predicate in
/// the query discards the NULL rows anyway). Pass `|_| false` for the
/// strict rule.
pub fn build_fk_graph(
    catalog: &Catalog,
    occs: &[(OccId, TableId)],
    ec: &EquivClasses,
    nullable_ok: &dyn Fn(ColRef) -> bool,
) -> FkGraph {
    let mut edges = Vec::new();
    for &(from_occ, from_table) in occs {
        for fk_id in catalog.foreign_keys_from(from_table) {
            let fk = catalog.foreign_key(fk_id);
            // Non-null requirement per referencing column (with relaxation).
            let from_cols_ok = fk.from_columns.iter().all(|&c| {
                let col = ColRef {
                    occ: from_occ,
                    col: c,
                };
                catalog.table(from_table).column(c).not_null || nullable_ok(col)
            });
            if !from_cols_ok {
                continue;
            }
            for &(to_occ, to_table) in occs {
                if to_occ == from_occ || to_table != fk.to_table {
                    continue;
                }
                // The expression must equate every FK column with the
                // corresponding key column (through equivalence classes).
                let joined = fk.from_columns.iter().zip(&fk.to_columns).all(|(&f, &c)| {
                    ec.same(
                        ColRef {
                            occ: from_occ,
                            col: f,
                        },
                        ColRef {
                            occ: to_occ,
                            col: c,
                        },
                    )
                });
                if joined {
                    edges.push(FkEdge {
                        from: from_occ,
                        to: to_occ,
                        col_pairs: fk
                            .from_columns
                            .iter()
                            .zip(&fk.to_columns)
                            .map(|(&f, &c)| {
                                (
                                    ColRef {
                                        occ: from_occ,
                                        col: f,
                                    },
                                    ColRef {
                                        occ: to_occ,
                                        col: c,
                                    },
                                )
                            })
                            .collect(),
                    });
                }
            }
        }
    }
    FkGraph {
        occs: occs.to_vec(),
        edges,
    }
}

impl FkGraph {
    /// The graph of the same block with occurrence `OccId(i)` renamed
    /// `occ_map[i]` (the occurrences of `self` must be `OccId(0), OccId(1),
    /// ...` in order), keeping only the edges whose nullable foreign-key
    /// columns, renamed, all pass `nullable_ok`.
    ///
    /// Built with a `nullable_ok` that accepts at least what this one does,
    /// `self` holds every edge [`build_fk_graph`] finds over the renamed
    /// occurrences and the renamed classes: renaming is injective, so it
    /// keeps which columns the classes equate, and both graphs list edges
    /// by referencing occurrence, foreign key and referenced occurrence.
    /// The result is that graph, edge for edge and in the same order.
    pub fn renamed(
        &self,
        catalog: &Catalog,
        occ_map: &[OccId],
        nullable_ok: &dyn Fn(ColRef) -> bool,
    ) -> FkGraph {
        let rename = |c: ColRef| ColRef {
            occ: occ_map[c.occ.0 as usize],
            col: c.col,
        };
        let edges = self
            .edges
            .iter()
            .filter(|e| {
                let from = catalog.table(self.occs[e.from.0 as usize].1);
                e.col_pairs
                    .iter()
                    .all(|&(f, _)| from.column(f.col).not_null || nullable_ok(rename(f)))
            })
            .map(|e| FkEdge {
                from: occ_map[e.from.0 as usize],
                to: occ_map[e.to.0 as usize],
                col_pairs: e
                    .col_pairs
                    .iter()
                    .map(|&(f, c)| (rename(f), rename(c)))
                    .collect(),
            })
            .collect();
        FkGraph {
            occs: occ_map
                .iter()
                .zip(&self.occs)
                .map(|(&o, &(_, t))| (o, t))
                .collect(),
            edges,
        }
    }
}

/// Result of running the elimination loop.
#[derive(Debug, Clone)]
pub struct Elimination {
    /// Occurrences that could not be eliminated.
    pub remaining: Vec<OccId>,
    /// Edges deleted during elimination, in deletion order. The matcher
    /// replays their join conditions into the query's equivalence classes.
    pub deleted_edges: Vec<FkEdge>,
}

/// Run the elimination of section 3.2: "We repeatedly delete any node that
/// has no outgoing edges and exactly one incoming edge. When a node is
/// deleted, its incoming edge is also deleted, which may make another node
/// deletable."
///
/// `deletable` restricts which nodes may be removed: for view matching only
/// the extra tables are deletable; for hub computation every non-anchored
/// node is.
pub fn eliminate(graph: &FkGraph, deletable: &dyn Fn(OccId) -> bool) -> Elimination {
    let mut alive: Vec<OccId> = graph.occs.iter().map(|&(o, _)| o).collect();
    let mut edges: Vec<FkEdge> = graph.edges.clone();
    let mut deleted_edges = Vec::new();
    loop {
        let victim = alive.iter().copied().find(|&o| {
            deletable(o)
                && edges.iter().filter(|e| e.from == o).count() == 0
                && edges.iter().filter(|e| e.to == o).count() == 1
        });
        let Some(victim) = victim else { break };
        alive.retain(|&o| o != victim);
        let idx = edges
            .iter()
            .position(|e| e.to == victim)
            .expect("victim had one incoming edge");
        deleted_edges.push(edges.remove(idx));
    }
    Elimination {
        remaining: alive,
        deleted_edges,
    }
}

/// Compute the hub of a view (section 4.2.2): run elimination until no
/// further tables can be removed. With `refined` set, occurrences carrying
/// a range or residual predicate on a column outside every non-trivial
/// equivalence class are kept in the hub ("we can leave T in the hub"
/// because such a predicate makes the join non-cardinality-preserving for
/// matching purposes).
pub fn compute_hub(graph: &FkGraph, anchored: &dyn Fn(OccId) -> bool) -> Vec<TableId> {
    let result = eliminate(graph, &|o| !anchored(o));
    let mut tables: Vec<TableId> = result
        .remaining
        .iter()
        .map(|&o| {
            graph
                .occs
                .iter()
                .find(|&&(oo, _)| oo == o)
                .expect("occurrence")
                .1
        })
        .collect();
    tables.sort();
    tables.dedup();
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_catalog::tpch::tpch_catalog;

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    /// lineitem(0) -> orders(1) -> customer(2), as in Example 3.
    fn example3_graph() -> FkGraph {
        let (cat, t) = tpch_catalog();
        let mut ec = EquivClasses::new();
        ec.union(cr(0, 0), cr(1, 0)); // l_orderkey = o_orderkey
        ec.union(cr(1, 1), cr(2, 0)); // o_custkey = c_custkey
        build_fk_graph(
            &cat,
            &[
                (OccId(0), t.lineitem),
                (OccId(1), t.orders),
                (OccId(2), t.customer),
            ],
            &ec,
            &|_| false,
        )
    }

    #[test]
    fn edges_follow_fk_equijoins() {
        let g = example3_graph();
        assert_eq!(g.edges.len(), 2);
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == OccId(0) && e.to == OccId(1)));
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == OccId(1) && e.to == OccId(2)));
    }

    #[test]
    fn example3_elimination_order() {
        // "The customer node can be deleted because it has no outgoing
        // edges and one incoming edge. ... Now orders has no outgoing edges
        // and can be removed."
        let g = example3_graph();
        let extras = [OccId(1), OccId(2)];
        let result = eliminate(&g, &|o| extras.contains(&o));
        assert_eq!(result.remaining, vec![OccId(0)]);
        assert_eq!(result.deleted_edges.len(), 2);
        // customer (via orders->customer edge) goes first.
        assert_eq!(result.deleted_edges[0].to, OccId(2));
        assert_eq!(result.deleted_edges[1].to, OccId(1));
    }

    #[test]
    fn elimination_respects_deletable_restriction() {
        let g = example3_graph();
        // Only customer is deletable: orders stays.
        let result = eliminate(&g, &|o| o == OccId(2));
        assert_eq!(result.remaining, vec![OccId(0), OccId(1)]);
        assert_eq!(result.deleted_edges.len(), 1);
    }

    #[test]
    fn missing_equijoin_blocks_edge() {
        let (cat, t) = tpch_catalog();
        // No join predicates at all: no edges.
        let g = build_fk_graph(
            &cat,
            &[(OccId(0), t.lineitem), (OccId(1), t.orders)],
            &EquivClasses::new(),
            &|_| false,
        );
        assert!(g.edges.is_empty());
    }

    #[test]
    fn partial_composite_fk_blocks_edge() {
        let (cat, t) = tpch_catalog();
        // lineitem -> partsupp needs BOTH l_partkey=ps_partkey and
        // l_suppkey=ps_suppkey; only one is present.
        let mut ec = EquivClasses::new();
        ec.union(cr(0, 1), cr(1, 0)); // l_partkey = ps_partkey only
        let g = build_fk_graph(
            &cat,
            &[(OccId(0), t.lineitem), (OccId(1), t.partsupp)],
            &ec,
            &|_| false,
        );
        assert!(g.edges.is_empty());
        // With both columns equated the edge appears.
        ec.union(cr(0, 2), cr(1, 1));
        let g = build_fk_graph(
            &cat,
            &[(OccId(0), t.lineitem), (OccId(1), t.partsupp)],
            &ec,
            &|_| false,
        );
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].col_pairs.len(), 2);
    }

    #[test]
    fn nullable_fk_respects_relaxation() {
        use mv_catalog::schema::{ForeignKey, TableBuilder};
        use mv_catalog::{Catalog, ColumnType};
        // T(f nullable) -> S(k unique).
        let mut cat = Catalog::new();
        let tid = cat.add_table(
            TableBuilder::new("t")
                .nullable_col("f", ColumnType::Int)
                .build(),
        );
        let sid = cat.add_table(
            TableBuilder::new("s")
                .col("k", ColumnType::Int)
                .primary_key(&["k"])
                .build(),
        );
        cat.add_foreign_key(ForeignKey {
            name: "t_f".into(),
            from_table: tid,
            from_columns: vec![mv_catalog::ColumnId(0)],
            to_table: sid,
            to_columns: vec![mv_catalog::ColumnId(0)],
        });
        let mut ec = EquivClasses::new();
        ec.union(cr(0, 0), cr(1, 0));
        let occs = [(OccId(0), tid), (OccId(1), sid)];
        // Strict rule: no edge (Example 5 before the extension).
        let g = build_fk_graph(&cat, &occs, &ec, &|_| false);
        assert!(g.edges.is_empty());
        // Relaxed rule: edge exists when the query null-rejects T.f.
        let g = build_fk_graph(&cat, &occs, &ec, &|c| c == cr(0, 0));
        assert_eq!(g.edges.len(), 1);
    }

    #[test]
    fn hub_of_example3_is_lineitem() {
        let g = example3_graph();
        let (_, t) = tpch_catalog();
        let hub = compute_hub(&g, &|_| false);
        assert_eq!(hub, vec![t.lineitem]);
        // Anchoring orders (e.g. a range predicate on o_totalprice) keeps
        // it — and everything upstream of nothing — in the hub.
        let hub = compute_hub(&g, &|o| o == OccId(1));
        let mut expected = vec![t.lineitem, t.orders];
        expected.sort();
        assert_eq!(hub, expected);
    }

    #[test]
    fn diamond_with_two_incoming_edges_not_deletable() {
        let (cat, t) = tpch_catalog();
        // lineitem -> part and partsupp -> part: part has two incoming
        // edges, so it cannot be eliminated while both sources remain.
        let mut ec = EquivClasses::new();
        ec.union(cr(0, 1), cr(2, 0)); // l_partkey = p_partkey
        ec.union(cr(1, 0), cr(2, 0)); // ps_partkey = p_partkey
        let g = build_fk_graph(
            &cat,
            &[
                (OccId(0), t.lineitem),
                (OccId(1), t.partsupp),
                (OccId(2), t.part),
            ],
            &ec,
            &|_| false,
        );
        // part cannot be deleted (two incoming).
        let result = eliminate(&g, &|o| o == OccId(2));
        assert!(result.remaining.contains(&OccId(2)));
    }
}
