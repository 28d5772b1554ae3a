//! View materialization and substitute execution.

use crate::agg::GroupAcc;
use crate::program::{ExecScratch, PlanProgram, RowBag};
use mv_catalog::Value;
use mv_data::{Database, Row};
use mv_expr::{BoolExpr, ColRef};
use mv_plan::{OutputList, Substitute, ViewDef};
use std::collections::HashMap;

/// Materialize a view: execute its defining expression against base data.
/// (SQL Server keeps these rows in the view's unique clustered index;
/// here they are kept unindexed.) It runs the view's compiled [`PlanProgram`], so the interpreter
/// ([`crate::spjg::execute_spjg`]) stays an independent check of what it
/// stores.
pub fn materialize_view(db: &Database, view: &ViewDef) -> Vec<Row> {
    let mut out = RowBag::new();
    PlanProgram::compile(&view.expr).execute(db, &mut ExecScratch::new(), &mut out);
    out.into_rows()
}

/// Execute a substitute against the materialized rows of its view: each
/// base-table backjoin (the section 7 extension) joins every row to the
/// base rows whose key equals the row's, then the compensating predicates
/// filter and the output list projects or re-aggregates.
///
/// A backjoin means what the served plan's `HashJoin` means: a row joins
/// every matching base row, once each, and a row whose key holds a NULL
/// joins none (SQL equality). On a database that satisfies the declared
/// key, that is exactly one base row per view row.
///
/// Column references inside the substitute follow the `Substitute`
/// convention: `occ = 0`, `col = view output position`, then the
/// backjoined tables' columns in order.
pub fn execute_substitute_with(db: &Database, view_rows: &[Row], sub: &Substitute) -> Vec<Row> {
    let mut rows: Vec<Row> = view_rows.to_vec();
    for bj in &sub.backjoins {
        let mut index: HashMap<Vec<&Value>, Vec<&Row>> = HashMap::new();
        for trow in db.rows(bj.table) {
            let key: Vec<&Value> = bj.key.iter().map(|(_, c)| &trow[c.0 as usize]).collect();
            if !key.iter().any(|v| v.is_null()) {
                index.entry(key).or_default().push(trow);
            }
        }
        let mut joined = Vec::new();
        for r in &rows {
            // A key holding a NULL finds nothing: no indexed key holds one.
            let key: Vec<&Value> = bj.key.iter().map(|(p, _)| &r[*p]).collect();
            for trow in index.get(&key).into_iter().flatten() {
                joined.push(r.iter().chain(trow.iter()).cloned().collect());
            }
        }
        rows = joined;
    }
    let accessor = |row: &Row| {
        let row = row.clone();
        move |c: ColRef| row[c.col.0 as usize].clone()
    };
    let pred = BoolExpr::and(sub.predicates.clone());
    let filtered: Vec<&Row> = rows
        .iter()
        .filter(|row| {
            let get = accessor(row);
            pred.eval(&get) == Some(true)
        })
        .collect();
    match &sub.output {
        OutputList::Spj(items) => filtered
            .iter()
            .map(|row| {
                let get = accessor(row);
                items.iter().map(|ne| ne.expr.eval(&get)).collect()
            })
            .collect(),
        OutputList::Aggregate {
            group_by,
            aggregates,
        } => {
            let aggs: Vec<_> = aggregates.iter().map(|a| a.func.clone()).collect();
            let mut groups: HashMap<Vec<Value>, GroupAcc> = HashMap::new();
            for row in &filtered {
                let get = accessor(row);
                let key: Vec<Value> = group_by.iter().map(|g| g.expr.eval(&get)).collect();
                groups
                    .entry(key)
                    .or_insert_with(|| GroupAcc::new(aggs.len()))
                    .add(&aggs, &get);
            }
            if groups.is_empty() && group_by.is_empty() {
                groups.insert(Vec::new(), GroupAcc::new(aggs.len()));
            }
            groups
                .into_iter()
                .map(|(mut key, acc)| {
                    key.extend(acc.finish(&aggs));
                    key
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::bag_eq;
    use crate::spjg::execute_spjg;
    use mv_data::{generate_tpch, TpchScale};
    use mv_expr::{CmpOp, ScalarExpr as S};
    use mv_plan::{NamedExpr, SpjgExpr, ViewId};

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    #[test]
    fn substitute_filters_and_projects() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 17);
        // View: all parts with key and size.
        let view = ViewDef::new(
            "v",
            SpjgExpr::spj(
                vec![t.part],
                BoolExpr::Literal(true),
                vec![
                    NamedExpr::new(S::col(cr(0, 0)), "p_partkey"),
                    NamedExpr::new(S::col(cr(0, 5)), "p_size"),
                ],
            ),
        );
        let rows = materialize_view(&db, &view);
        assert_eq!(rows.len(), db.row_count(t.part));
        // Substitute: keep p_size < 20, output p_partkey.
        let sub = Substitute {
            view: ViewId(0),
            backjoins: vec![],
            predicates: vec![BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Lt, S::lit(20i64))],
            output: OutputList::Spj(vec![NamedExpr::new(S::col(cr(0, 0)), "p_partkey")]),
            freshness: mv_plan::Freshness::Fresh,
        };
        let got = execute_substitute_with(&db, &rows, &sub);
        // Oracle: the query evaluated directly.
        let query = SpjgExpr::spj(
            vec![t.part],
            BoolExpr::cmp(S::col(cr(0, 5)), CmpOp::Lt, S::lit(20i64)),
            vec![NamedExpr::new(S::col(cr(0, 0)), "p_partkey")],
        );
        let want = execute_spjg(&db, &query);
        assert!(bag_eq(&got, &want));
        assert!(!got.is_empty());
    }
}
