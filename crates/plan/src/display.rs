//! Rendering SPJG blocks and substitutes back to readable SQL.
//!
//! Internal column references are positional (`t0.c3`); for diagnostics,
//! examples and error messages we re-attach real table and column names
//! from the catalog.

use crate::spjg::{AggFunc, OutputList, SpjgExpr};
use crate::substitute::Substitute;
use crate::view::ViewSet;
use mv_catalog::Catalog;
use mv_expr::{conjuncts_to_bool, BoolExpr, ColRef, ColumnNamer};

use std::fmt::{self, Write as _};

/// Render a block's clauses into one string: `SELECT` over `output`,
/// `FROM` as `from` writes it, `WHERE` over `pred` if there is one, and
/// `GROUP BY` over a non-empty grouping list, each column named by `col`.
fn render_block(
    output: &OutputList,
    from: impl FnOnce(&mut String) -> fmt::Result,
    pred: Option<&BoolExpr>,
    col: &ColumnNamer,
) -> String {
    let (items, aggregates, group_by) = match output {
        OutputList::Spj(items) => (&items[..], &[][..], &[][..]),
        OutputList::Aggregate {
            group_by,
            aggregates,
        } => (&group_by[..], &aggregates[..], &group_by[..]),
    };
    let mut out = String::from("SELECT ");
    let clauses = |out: &mut String| -> fmt::Result {
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            item.expr.render(out, col)?;
            write!(out, " AS {}", item.name)?;
        }
        for (i, agg) in aggregates.iter().enumerate() {
            if i + items.len() > 0 {
                out.push_str(", ");
            }
            match &agg.func {
                AggFunc::CountStar => out.push_str("COUNT_BIG(*)"),
                AggFunc::Sum(e) => {
                    out.push_str("SUM(");
                    e.render(out, col)?;
                    out.push(')');
                }
                AggFunc::SumZero(e) => {
                    out.push_str("COALESCE(SUM(");
                    e.render(out, col)?;
                    out.push_str("), 0)");
                }
            }
            write!(out, " AS {}", agg.name)?;
        }
        out.push_str("\nFROM ");
        from(out)?;
        if let Some(pred) = pred {
            out.push_str("\nWHERE ");
            pred.render(out, col)?;
        }
        for (i, g) in group_by.iter().enumerate() {
            out.push_str(if i > 0 { ", " } else { "\nGROUP BY " });
            g.expr.render(out, col)?;
        }
        Ok(())
    };
    clauses(&mut out).expect("a String takes every write");
    out
}

/// Render an SPJG block as SQL. A column is named by its catalog name,
/// prefixed `t{occurrence}.` when the same base table appears more than
/// once.
pub fn sql_of(expr: &SpjgExpr, catalog: &Catalog) -> String {
    let needs_alias = expr.tables.len()
        != expr
            .tables
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
    let col = |out: &mut dyn fmt::Write, c: ColRef| {
        if needs_alias {
            write!(out, "t{}.", c.occ.0)?;
        }
        let table = catalog.table(expr.table_of(c.occ));
        out.write_str(&table.column(c.col).name)
    };
    let from = |out: &mut String| {
        for (i, t) in expr.tables.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&catalog.table(*t).name);
            if needs_alias {
                write!(out, " t{i}")?;
            }
        }
        Ok(())
    };
    let pred = conjuncts_to_bool(&expr.conjuncts);
    let pred = (pred != BoolExpr::Literal(true)).then_some(&pred);
    render_block(&expr.output, from, pred, &col)
}

/// Render a substitute as SQL over the view it scans. Backjoined base
/// tables require the catalog for column names; pass `None` to render
/// their columns positionally.
pub fn sql_of_substitute(sub: &Substitute, views: &ViewSet) -> String {
    sql_of_substitute_with(sub, views, None)
}

/// Render a substitute, resolving backjoin column names via the catalog.
pub fn sql_of_substitute_with(
    sub: &Substitute,
    views: &ViewSet,
    catalog: Option<&Catalog>,
) -> String {
    let view = views.get(sub.view);
    let mut names: Vec<String> = view
        .expr
        .output_names()
        .into_iter()
        .map(str::to_string)
        .collect();
    for bj in &sub.backjoins {
        match catalog {
            Some(cat) => {
                for col in &cat.table(bj.table).columns {
                    names.push(col.name.clone());
                }
            }
            None => {
                let start = names.len();
                let max_col = bj
                    .key
                    .iter()
                    .map(|(_, c)| c.0 as usize + 1)
                    .max()
                    .unwrap_or(0);
                // Without a catalog we do not know the arity; reserve
                // generously using the largest key column plus headroom.
                for i in 0..max_col.max(32) {
                    names.push(format!("bj{}_c{}", bj.table.0, i + start));
                }
            }
        }
    }
    let col = |out: &mut dyn fmt::Write, c: ColRef| match names.get(c.col.0 as usize) {
        Some(name) => out.write_str(name),
        None => write!(out, "c{}", c.col.0),
    };
    let from = |out: &mut String| {
        out.push_str(&view.name);
        for bj in &sub.backjoins {
            match catalog {
                Some(cat) => write!(out, " JOIN {} USING (key)", cat.table(bj.table).name)?,
                None => write!(out, " JOIN T{} USING (key)", bj.table.0)?,
            }
        }
        Ok(())
    };
    let pred = (!sub.predicates.is_empty()).then(|| BoolExpr::and(sub.predicates.clone()));
    render_block(&sub.output, from, pred.as_ref(), &col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spjg::{NamedAgg, NamedExpr};
    use crate::substitute::Freshness;
    use crate::view::ViewDef;
    use mv_catalog::tpch::tpch_catalog;
    use mv_expr::{CmpOp, ScalarExpr as S};

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    #[test]
    fn spj_sql_rendering() {
        let (cat, t) = tpch_catalog();
        let pred = BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::cmp(S::col(cr(1, 1)), CmpOp::Ge, S::lit(50i64)),
        ]);
        let e = SpjgExpr::spj(
            vec![t.lineitem, t.orders],
            pred,
            vec![NamedExpr::new(S::col(cr(0, 1)), "l_partkey")],
        );
        let sql = sql_of(&e, &cat);
        assert!(sql.contains("SELECT l_partkey AS l_partkey"), "{sql}");
        assert!(sql.contains("FROM lineitem, orders"), "{sql}");
        assert!(sql.contains("l_orderkey = o_orderkey"), "{sql}");
        assert!(sql.contains("o_custkey >= 50"), "{sql}");
    }

    #[test]
    fn aggregate_sql_rendering() {
        let (cat, t) = tpch_catalog();
        let e = SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
            vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
        );
        let sql = sql_of(&e, &cat);
        assert!(sql.contains("COUNT_BIG(*) AS cnt"), "{sql}");
        assert!(sql.contains("GROUP BY o_custkey"), "{sql}");
        assert!(!sql.contains("WHERE"), "{sql}");
    }

    #[test]
    fn self_join_uses_aliases() {
        let (cat, t) = tpch_catalog();
        let e = SpjgExpr::spj(
            vec![t.nation, t.nation],
            BoolExpr::col_eq(cr(0, 2), cr(1, 2)),
            vec![NamedExpr::new(S::col(cr(0, 1)), "n1_name")],
        );
        let sql = sql_of(&e, &cat);
        assert!(sql.contains("FROM nation t0, nation t1"), "{sql}");
        assert!(sql.contains("t0.n_regionkey = t1.n_regionkey"), "{sql}");
    }

    #[test]
    fn backjoined_substitute_rendering() {
        use crate::substitute::BackJoin;
        let (cat, t) = tpch_catalog();
        let mut views = ViewSet::new();
        let vexpr = SpjgExpr::spj(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
        );
        let vid = views.add(ViewDef::new("okeys", vexpr)).unwrap();
        // Backjoin orders on its key; filter on the recovered o_custkey
        // (position 1 of view output + column 1 of orders = position 2).
        let sub = Substitute {
            view: vid,
            backjoins: vec![BackJoin {
                table: t.orders,
                key: vec![(0, mv_catalog::ColumnId(0))],
            }],
            predicates: vec![BoolExpr::cmp(S::col(cr(0, 2)), CmpOp::Le, S::lit(10i64))],
            output: OutputList::Spj(vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")]),
            freshness: Freshness::Fresh,
        };
        let sql = sql_of_substitute_with(&sub, &views, Some(&cat));
        assert!(sql.contains("FROM okeys JOIN orders"), "{sql}");
        assert!(sql.contains("o_custkey <= 10"), "{sql}");
        // Positional fallback without a catalog still renders.
        let sql = sql_of_substitute(&sub, &views);
        assert!(sql.contains("JOIN T"), "{sql}");
    }

    #[test]
    fn substitute_sql_rendering() {
        let (_, t) = tpch_catalog();
        let mut views = ViewSet::new();
        let vexpr = SpjgExpr::spj(
            vec![t.part],
            BoolExpr::Literal(true),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "p_partkey"),
                NamedExpr::new(S::col(cr(0, 5)), "p_size"),
            ],
        );
        let vid = views.add(ViewDef::new("v_parts", vexpr)).unwrap();
        let sub = Substitute {
            view: vid,
            backjoins: vec![],
            predicates: vec![BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Lt, S::lit(10i64))],
            output: OutputList::Spj(vec![NamedExpr::new(S::col(cr(0, 0)), "p_partkey")]),
            freshness: Freshness::Fresh,
        };
        let sql = sql_of_substitute(&sub, &views);
        assert!(sql.contains("FROM v_parts"), "{sql}");
        assert!(sql.contains("WHERE p_size < 10"), "{sql}");
    }
}
