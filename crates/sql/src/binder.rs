//! Name resolution: AST → catalog-resolved SPJG blocks.

use crate::lexer::Name;
use crate::parser::{AstAgg, AstBool, AstScalar, AstSelect, AstStatement, SelectItem};
use crate::{SqlError, Statement};
use mv_catalog::{types::parse_date, Catalog, TableId, Value};
use mv_expr::{BoolExpr, ColRef, OccId, ScalarExpr};
use mv_plan::{AggFunc, NamedAgg, NamedExpr, SpjgExpr, ViewDef};

/// One FROM entry during binding.
struct FromEntry {
    occ: OccId,
    table: TableId,
    /// Name this occurrence answers to (alias, or table name).
    label: Name,
    /// Whether the label is an explicit alias (qualifies exclusively).
    aliased: bool,
}

struct Binder<'a> {
    catalog: &'a Catalog,
    from: Vec<FromEntry>,
}

/// Bind a statement against the catalog.
pub fn bind(ast: AstStatement, catalog: &Catalog) -> Result<Statement, SqlError> {
    match ast {
        AstStatement::Select(s) => Ok(Statement::Select(bind_select(s, catalog)?)),
        AstStatement::CreateView { name, select } => {
            let expr = bind_select(select, catalog)?;
            Ok(Statement::CreateView(ViewDef::new(name.as_str(), expr)))
        }
    }
}

fn bind_select(select: AstSelect, catalog: &Catalog) -> Result<SpjgExpr, SqlError> {
    let mut from = Vec::with_capacity(select.from.len());
    for (i, tref) in select.from.iter().enumerate() {
        let table = catalog
            .table_by_name(tref.name.as_str())
            .ok_or_else(|| SqlError::new(format!("unknown table {}", tref.name), tref.offset))?;
        from.push(FromEntry {
            occ: OccId(i as u32),
            table,
            label: tref.alias.as_ref().unwrap_or(&tref.name).clone(),
            aliased: tref.alias.is_some(),
        });
    }
    // Duplicate labels are only a problem when referenced; but two
    // unaliased occurrences of one table can never be addressed.
    for (i, a) in from.iter().enumerate() {
        for (b, tref) in from[i + 1..].iter().zip(&select.from[i + 1..]) {
            if a.label == b.label {
                return Err(SqlError::new(
                    format!("duplicate table label {} — alias repeated tables", a.label),
                    tref.offset,
                ));
            }
        }
    }
    let binder = Binder { catalog, from };

    let predicate = match select.where_clause {
        Some(w) => binder.bind_bool(&w)?,
        None => BoolExpr::Literal(true),
    };

    let has_agg = select
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Agg { .. }));
    let tables: Vec<TableId> = binder.from.iter().map(|f| f.table).collect();

    if !has_agg && select.group_by.is_empty() {
        // Plain SPJ projection.
        let mut outputs = Vec::new();
        for item in &select.items {
            let SelectItem::Scalar {
                expr,
                alias,
                offset,
            } = item
            else {
                unreachable!()
            };
            let bound = binder.bind_scalar(expr)?;
            let name = binder.output_name(expr, alias, *offset)?;
            outputs.push(NamedExpr::new(bound, name));
        }
        return Ok(SpjgExpr::spj(tables, predicate, outputs));
    }

    // Aggregation block. The select list must be the grouping expressions
    // (in order) followed by the aggregates, mirroring the output shape of
    // indexed views (section 2: grouping columns must be output columns).
    let bound_gb: Vec<ScalarExpr> = select
        .group_by
        .iter()
        .map(|(g, _)| binder.bind_scalar(g))
        .collect::<Result<_, _>>()?;
    let mut group_by = Vec::new();
    let mut aggregates = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Scalar {
                expr,
                alias,
                offset,
            } => {
                if !aggregates.is_empty() {
                    return Err(SqlError::new(
                        "grouping columns must precede aggregates in the select list",
                        *offset,
                    ));
                }
                let bound = binder.bind_scalar(expr)?;
                if !bound_gb.contains(&bound) {
                    return Err(SqlError::new(
                        format!("select item {expr:?} is not in the GROUP BY list"),
                        *offset,
                    ));
                }
                let name = binder.output_name(expr, alias, *offset)?;
                group_by.push(NamedExpr::new(bound, name));
            }
            SelectItem::Agg { agg, alias, offset } => {
                let func = match agg {
                    AstAgg::CountStar => AggFunc::CountStar,
                    AstAgg::Sum(e) => AggFunc::Sum(binder.bind_scalar(e)?),
                    AstAgg::Avg(_) => {
                        return Err(SqlError::new(
                            "AVG is not supported: select SUM(e) and COUNT_BIG(*) and divide \
                             after aggregation (the paper's AVG = SUM/COUNT rewrite)",
                            *offset,
                        ))
                    }
                };
                let name = alias.as_ref().ok_or_else(|| {
                    SqlError::new("aggregate outputs must be named with AS", *offset)
                })?;
                aggregates.push(NamedAgg::new(func, name.as_str()));
            }
        }
    }
    // Every GROUP BY expression must be selected (it is the key).
    for ((g, offset), bound) in select.group_by.iter().zip(&bound_gb) {
        if !group_by.iter().any(|ne| ne.expr == *bound) {
            return Err(SqlError::new(
                format!("GROUP BY expression {g:?} must appear in the select list"),
                *offset,
            ));
        }
    }
    Ok(SpjgExpr::aggregate(tables, predicate, group_by, aggregates))
}

impl<'a> Binder<'a> {
    /// Default output name of the select item at `offset`: the column
    /// name for bare columns; expressions require an alias (the paper:
    /// "output columns defined by arithmetic or other expressions must be
    /// assigned names").
    fn output_name<'n>(
        &self,
        expr: &'n AstScalar,
        alias: &'n Option<Name>,
        offset: usize,
    ) -> Result<&'n str, SqlError> {
        if let Some(a) = alias {
            return Ok(a.as_str());
        }
        match expr {
            AstScalar::Column { name, .. } => Ok(name.as_str()),
            _ => Err(SqlError::new(
                "expression outputs must be assigned a name with AS",
                offset,
            )),
        }
    }

    fn resolve_column(
        &self,
        qualifier: &Option<Name>,
        name: &Name,
        offset: usize,
    ) -> Result<ColRef, SqlError> {
        let named = self.catalog.columns_named(name.as_str());
        match qualifier {
            Some(q) => {
                let entry = self
                    .from
                    .iter()
                    .find(|f| {
                        f.label == *q
                            || (!f.aliased && self.catalog.table(f.table).name == q.as_str())
                    })
                    .ok_or_else(|| SqlError::new(format!("unknown table or alias {q}"), offset))?;
                let &(_, col) = named
                    .iter()
                    .find(|(table, _)| *table == entry.table)
                    .ok_or_else(|| SqlError::new(format!("unknown column {q}.{name}"), offset))?;
                Ok(ColRef {
                    occ: entry.occ,
                    col,
                })
            }
            None => {
                let mut found: Option<ColRef> = None;
                for &(table, col) in named {
                    for entry in self.from.iter().filter(|f| f.table == table) {
                        if found.is_some() {
                            return Err(SqlError::new(format!("ambiguous column {name}"), offset));
                        }
                        found = Some(ColRef {
                            occ: entry.occ,
                            col,
                        });
                    }
                }
                found.ok_or_else(|| SqlError::new(format!("unknown column {name}"), offset))
            }
        }
    }

    fn bind_scalar(&self, e: &AstScalar) -> Result<ScalarExpr, SqlError> {
        Ok(match e {
            AstScalar::Column {
                qualifier,
                name,
                offset,
            } => ScalarExpr::Column(self.resolve_column(qualifier, name, *offset)?),
            AstScalar::Int(v) => ScalarExpr::Literal(Value::Int(*v)),
            AstScalar::Float(v) => ScalarExpr::Literal(Value::Float(*v)),
            AstScalar::Str(s) => ScalarExpr::Literal(Value::from(s.as_str())),
            AstScalar::DateLit { text, offset } => {
                let days = parse_date(text)
                    .ok_or_else(|| SqlError::new(format!("invalid date {text}"), *offset))?;
                ScalarExpr::Literal(Value::Date(days))
            }
            AstScalar::Binary { op, left, right } => ScalarExpr::Binary {
                op: *op,
                left: Box::new(self.bind_scalar(left)?),
                right: Box::new(self.bind_scalar(right)?),
            },
            AstScalar::Neg(inner) => match self.bind_scalar(inner)? {
                // Fold negation of literals so `-5` classifies as a range
                // bound, not a residual expression.
                ScalarExpr::Literal(Value::Int(v)) => ScalarExpr::Literal(Value::Int(-v)),
                ScalarExpr::Literal(Value::Float(v)) => ScalarExpr::Literal(Value::Float(-v)),
                other => ScalarExpr::Literal(Value::Int(0)).binary(mv_expr::BinOp::Sub, other),
            },
        })
    }

    fn bind_bool(&self, e: &AstBool) -> Result<BoolExpr, SqlError> {
        Ok(match e {
            AstBool::And(parts) => BoolExpr::and(
                parts
                    .iter()
                    .map(|p| self.bind_bool(p))
                    .collect::<Result<_, _>>()?,
            ),
            AstBool::Or(parts) => BoolExpr::or(
                parts
                    .iter()
                    .map(|p| self.bind_bool(p))
                    .collect::<Result<_, _>>()?,
            ),
            AstBool::Not(inner) => BoolExpr::Not(Box::new(self.bind_bool(inner)?)),
            AstBool::Cmp { op, left, right } => BoolExpr::Compare {
                op: *op,
                left: self.bind_scalar(left)?,
                right: self.bind_scalar(right)?,
            },
            AstBool::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let e = self.bind_scalar(expr)?;
                let lo = self.bind_scalar(lo)?;
                let hi = self.bind_scalar(hi)?;
                let between = BoolExpr::and(vec![
                    BoolExpr::cmp(e.clone(), mv_expr::CmpOp::Ge, lo),
                    BoolExpr::cmp(e, mv_expr::CmpOp::Le, hi),
                ]);
                if *negated {
                    BoolExpr::Not(Box::new(between))
                } else {
                    between
                }
            }
            AstBool::Like {
                expr,
                pattern,
                negated,
            } => BoolExpr::Like {
                expr: self.bind_scalar(expr)?,
                pattern: pattern.clone(),
                negated: *negated,
            },
            AstBool::IsNull { expr, negated } => BoolExpr::IsNull {
                expr: self.bind_scalar(expr)?,
                negated: *negated,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use mv_catalog::tpch::tpch_catalog;
    use mv_expr::Conjunct;
    use mv_plan::OutputList;

    #[test]
    fn example1_view_from_the_paper() {
        // The paper's Example 1 (modulo the gross_revenue naming).
        let (cat, t) = tpch_catalog();
        let v = crate::parse_view(
            "create view v1 with schemabinding as \
             select p_partkey, p_name, p_retailprice, count_big(*) as cnt, \
                    sum(l_extendedprice * l_quantity) as gross_revenue \
             from dbo.lineitem, dbo.part \
             where p_partkey < 1000 and p_name like '%steel%' and p_partkey = l_partkey \
             group by p_partkey, p_name, p_retailprice",
            &cat,
        )
        .unwrap();
        assert_eq!(v.name, "v1");
        assert_eq!(v.expr.tables, vec![t.lineitem, t.part]);
        assert!(v.expr.is_aggregate());
        assert_eq!(v.expr.output_arity(), 5);
        assert!(v.expr.count_star_position().is_some());
        // Conjuncts: range + residual LIKE + equijoin.
        assert_eq!(v.expr.conjuncts.len(), 3);
    }

    #[test]
    fn qualified_and_unqualified_columns() {
        let (cat, t) = tpch_catalog();
        let q = parse_query(
            "select l.l_orderkey from lineitem l, orders o \
             where l.l_orderkey = o.o_orderkey and o_custkey >= 50",
            &cat,
        )
        .unwrap();
        assert_eq!(q.tables, vec![t.lineitem, t.orders]);
        assert!(matches!(q.conjuncts[0], Conjunct::ColumnEq(..)));
        assert!(matches!(q.conjuncts[1], Conjunct::Range { .. }));
    }

    #[test]
    fn ambiguity_and_unknowns_rejected() {
        let (cat, _) = tpch_catalog();
        // Each error points at the name it is about.
        for (bad, message, offset) in [
            ("select x from lineitem", "unknown column x", 7),
            ("select l_orderkey from nosuch", "unknown table nosuch", 23),
            (
                "select l_orderkey from dbo.nosuch",
                "unknown table nosuch",
                27,
            ),
            (
                "select z.l_orderkey from lineitem",
                "unknown table or alias z",
                7,
            ),
            (
                "select l_orderkey from lineitem where l.x = 1",
                "unknown table or alias l",
                38,
            ),
            ("select l.x from lineitem l", "unknown column l.x", 7),
            (
                "select n_name from nation a, nation b",
                "ambiguous column n_name",
                7,
            ),
            (
                "select l_orderkey from lineitem, lineitem",
                "duplicate table label lineitem — alias repeated tables",
                33,
            ),
        ] {
            let err = parse_query(bad, &cat).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                (message, offset),
                "{bad}"
            );
        }
        // Same table twice with aliases is fine.
        assert!(parse_query(
            "select a.n_name from nation a, nation b where a.n_regionkey = b.n_regionkey",
            &cat
        )
        .is_ok());
    }

    #[test]
    fn between_becomes_two_ranges() {
        let (cat, _) = tpch_catalog();
        let q = parse_query(
            "select l_orderkey from lineitem where l_orderkey between 1000 and 1500",
            &cat,
        )
        .unwrap();
        assert_eq!(q.conjuncts.len(), 2);
        assert!(q
            .conjuncts
            .iter()
            .all(|c| matches!(c, Conjunct::Range { .. })));
    }

    #[test]
    fn date_literals_bind() {
        let (cat, _) = tpch_catalog();
        let q = parse_query(
            "select l_orderkey from lineitem where l_shipdate >= DATE '1994-01-01'",
            &cat,
        )
        .unwrap();
        let Conjunct::Range { value, .. } = &q.conjuncts[0] else {
            panic!()
        };
        assert!(matches!(value, Value::Date(_)));
        let err = parse_query(
            "select l_orderkey from lineitem where l_shipdate >= DATE '1994-13-01'",
            &cat,
        )
        .unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("invalid date 1994-13-01", 52)
        );
    }

    #[test]
    fn aggregate_select_list_rules() {
        let (cat, _) = tpch_catalog();
        // Each error points at the select item or GROUP BY expression it
        // is about.
        for (bad, message, offset) in [
            // Scalar item not in GROUP BY.
            (
                "select o_orderkey, count_big(*) as c from orders group by o_custkey",
                "is not in the GROUP BY list",
                7,
            ),
            // GROUP BY expression not selected.
            (
                "select count_big(*) as c from orders group by o_custkey",
                "must appear in the select list",
                46,
            ),
            // Aggregate before a grouping column.
            (
                "select count_big(*) as c, o_custkey from orders group by o_custkey",
                "grouping columns must precede aggregates",
                26,
            ),
            // Unnamed aggregate.
            (
                "select o_custkey, count_big(*) from orders group by o_custkey",
                "aggregate outputs must be named",
                18,
            ),
            // AVG: rejected with guidance.
            (
                "select o_custkey, avg(o_totalprice) as a from orders group by o_custkey",
                "AVG",
                18,
            ),
        ] {
            let err = parse_query(bad, &cat).unwrap_err();
            assert!(err.message.contains(message), "{bad}: {}", err.message);
            assert_eq!(err.offset, offset, "{bad}");
        }
    }

    #[test]
    fn scalar_aggregate_without_group_by() {
        let (cat, _) = tpch_catalog();
        let q = parse_query(
            "select count_big(*) as cnt, sum(o_totalprice) as total from orders",
            &cat,
        )
        .unwrap();
        let OutputList::Aggregate {
            group_by,
            aggregates,
        } = &q.output
        else {
            panic!()
        };
        assert!(group_by.is_empty());
        assert_eq!(aggregates.len(), 2);
    }

    #[test]
    fn negative_literals_fold() {
        let (cat, _) = tpch_catalog();
        let q = parse_query(
            "select s_suppkey from supplier where s_acctbal > -500",
            &cat,
        )
        .unwrap();
        assert!(matches!(
            &q.conjuncts[0],
            Conjunct::Range {
                value: Value::Int(-500),
                ..
            }
        ));
    }

    #[test]
    fn expression_outputs_need_names() {
        let (cat, _) = tpch_catalog();
        let err = parse_query(
            "select l_orderkey, l_quantity * l_extendedprice from lineitem",
            &cat,
        )
        .unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("expression outputs must be assigned a name with AS", 19)
        );
        assert!(parse_query(
            "select l_quantity * l_extendedprice as gross from lineitem",
            &cat
        )
        .is_ok());
    }
}
