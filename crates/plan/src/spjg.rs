//! The SPJG normal form.

use mv_catalog::{Catalog, ColumnType, TableId, Value};
use mv_expr::{classify, BoolExpr, ColRef, Conjunct, EquivClasses, OccId, ScalarExpr};

/// A named output expression (`expr AS name`).
///
/// "Output columns defined by arithmetic or other expressions must be
/// assigned names (using the AS clause) so that they can be referred to"
/// (section 2, Example 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NamedExpr {
    /// The expression.
    pub expr: ScalarExpr,
    /// Output column name.
    pub name: String,
}

impl NamedExpr {
    /// Convenience constructor.
    pub fn new(expr: ScalarExpr, name: impl Into<String>) -> Self {
        NamedExpr {
            expr,
            name: name.into(),
        }
    }
}

/// Aggregation functions allowed in materialized views and queries.
///
/// Section 2: "Aggregation functions are limited to sum and count."
/// `AVG(E)` is rewritten to `SUM(E) / COUNT(*)` by the SQL front end
/// (section 3.3), so it never reaches the plan layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT_BIG(*)`.
    CountStar,
    /// `SUM(expr)`.
    Sum(ScalarExpr),
    /// `SUM(expr)` that yields 0 instead of NULL over empty input —
    /// `COALESCE(SUM(expr), 0)`. Produced by the matcher when a query's
    /// `COUNT(*)` is rolled up as a sum over a view's count column
    /// (section 3.3): a plain SUM would return NULL where the original
    /// scalar `COUNT(*)` returns 0.
    SumZero(ScalarExpr),
}

impl AggFunc {
    /// The argument expression, if any.
    pub fn argument(&self) -> Option<&ScalarExpr> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Sum(e) | AggFunc::SumZero(e) => Some(e),
        }
    }
}

/// A named aggregate output (`SUM(x) AS name`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NamedAgg {
    /// The aggregation function.
    pub func: AggFunc,
    /// Output column name.
    pub name: String,
}

impl NamedAgg {
    /// Convenience constructor.
    pub fn new(func: AggFunc, name: impl Into<String>) -> Self {
        NamedAgg {
            func,
            name: name.into(),
        }
    }
}

/// The output side of an SPJG block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OutputList {
    /// Plain projection (no aggregation).
    Spj(Vec<NamedExpr>),
    /// Grouping plus aggregates. The output columns are the grouping
    /// expressions followed by the aggregates, in that order — matching
    /// the materialized-view requirement that "all group-by expressions
    /// must also be in the output list" (section 3.3).
    Aggregate {
        /// Grouping expressions. May be empty (scalar aggregation).
        group_by: Vec<NamedExpr>,
        /// Aggregate outputs.
        aggregates: Vec<NamedAgg>,
    },
}

/// One SPJG block: `SELECT <output> FROM <tables> WHERE <conjuncts>
/// [GROUP BY ...]`.
///
/// Tables are *occurrences*: position `i` in [`SpjgExpr::tables`] is
/// occurrence [`OccId`]`(i)`, and every [`ColRef`] in the block addresses
/// `(occurrence, column)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpjgExpr {
    /// The FROM list: base table of each occurrence.
    pub tables: Vec<TableId>,
    /// The WHERE clause in classified CNF.
    pub conjuncts: Vec<Conjunct>,
    /// The output list.
    pub output: OutputList,
}

impl SpjgExpr {
    /// Build an SPJ block from an unclassified predicate.
    pub fn spj(tables: Vec<TableId>, predicate: BoolExpr, output: Vec<NamedExpr>) -> Self {
        SpjgExpr {
            tables,
            conjuncts: classify(predicate),
            output: OutputList::Spj(output),
        }
    }

    /// Build an aggregation block from an unclassified predicate.
    pub fn aggregate(
        tables: Vec<TableId>,
        predicate: BoolExpr,
        group_by: Vec<NamedExpr>,
        aggregates: Vec<NamedAgg>,
    ) -> Self {
        SpjgExpr {
            tables,
            conjuncts: classify(predicate),
            output: OutputList::Aggregate {
                group_by,
                aggregates,
            },
        }
    }

    /// `self == other`, with every literal also [`Value::identical`].
    /// `==` compares literals with `Value`'s `Eq`, so blocks equal by it
    /// can still compute different values (`a * 2` and `a * 2.0`); a cache
    /// of what a block computes keys on this instead.
    pub fn identical(&self, other: &SpjgExpr) -> bool {
        self == other
            && self
                .literals()
                .iter()
                .zip(other.literals())
                .all(|(a, b)| a.identical(b))
    }

    /// Every literal of the block: range bounds and residuals, then the
    /// output expressions.
    fn literals(&self) -> Vec<&Value> {
        let mut out = Vec::new();
        for conj in &self.conjuncts {
            match conj {
                Conjunct::ColumnEq(..) => {}
                Conjunct::Range { value, .. } => out.push(value),
                Conjunct::Residual(p) => p.collect_literals(&mut out),
            }
        }
        for e in self.scalar_outputs() {
            e.expr.collect_literals(&mut out);
        }
        for a in self.aggregate_outputs() {
            if let Some(arg) = a.func.argument() {
                arg.collect_literals(&mut out);
            }
        }
        out
    }

    /// Is this an aggregation block?
    pub fn is_aggregate(&self) -> bool {
        matches!(self.output, OutputList::Aggregate { .. })
    }

    /// Table occurrences with their base tables.
    pub fn occurrences(&self) -> impl Iterator<Item = (OccId, TableId)> + '_ {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (OccId(i as u32), *t))
    }

    /// The base table of an occurrence. Panics if out of range.
    pub fn table_of(&self, occ: OccId) -> TableId {
        self.tables[occ.0 as usize]
    }

    /// Number of output columns.
    pub fn output_arity(&self) -> usize {
        match &self.output {
            OutputList::Spj(v) => v.len(),
            OutputList::Aggregate {
                group_by,
                aggregates,
            } => group_by.len() + aggregates.len(),
        }
    }

    /// Names of all output columns, in order.
    pub fn output_names(&self) -> Vec<&str> {
        match &self.output {
            OutputList::Spj(v) => v.iter().map(|e| e.name.as_str()).collect(),
            OutputList::Aggregate {
                group_by,
                aggregates,
            } => group_by
                .iter()
                .map(|e| e.name.as_str())
                .chain(aggregates.iter().map(|a| a.name.as_str()))
                .collect(),
        }
    }

    /// The scalar (non-aggregate) output expressions: the projection list
    /// for SPJ blocks, the grouping expressions for aggregation blocks.
    pub fn scalar_outputs(&self) -> &[NamedExpr] {
        match &self.output {
            OutputList::Spj(v) => v,
            OutputList::Aggregate { group_by, .. } => group_by,
        }
    }

    /// Aggregate outputs (empty for SPJ blocks).
    pub fn aggregate_outputs(&self) -> &[NamedAgg] {
        match &self.output {
            OutputList::Spj(_) => &[],
            OutputList::Aggregate { aggregates, .. } => aggregates,
        }
    }

    /// Position of the `COUNT(*)` output, if any. Materialized aggregation
    /// views are required to carry one (section 2): the matcher uses it to
    /// rewrite a query's `COUNT(*)` as `SUM(cnt)` and to roll groups up.
    pub fn count_star_position(&self) -> Option<usize> {
        match &self.output {
            OutputList::Spj(_) => None,
            OutputList::Aggregate {
                group_by,
                aggregates,
            } => aggregates
                .iter()
                .position(|a| a.func == AggFunc::CountStar)
                .map(|i| group_by.len() + i),
        }
    }

    /// Compute the column equivalence classes of this block (section
    /// 3.1.1): one union per column-equality conjunct.
    pub fn equiv_classes(&self) -> EquivClasses {
        let mut ec = EquivClasses::new();
        for c in &self.conjuncts {
            if let Conjunct::ColumnEq(a, b) = c {
                ec.union(*a, *b);
            }
        }
        ec
    }

    /// The type of a column reference, resolved through the catalog.
    pub fn col_type(&self, catalog: &Catalog, c: ColRef) -> ColumnType {
        catalog.table(self.table_of(c.occ)).column(c.col).ty
    }

    /// Every column referenced anywhere in the block (predicates and
    /// outputs), deduplicated, in first-appearance order.
    pub fn referenced_columns(&self) -> Vec<ColRef> {
        let mut seen = Vec::new();
        let mut push = |c: ColRef| {
            if !seen.contains(&c) {
                seen.push(c);
            }
        };
        for conj in &self.conjuncts {
            for c in conj.columns() {
                push(c);
            }
        }
        match &self.output {
            OutputList::Spj(v) => {
                for e in v {
                    for c in e.expr.columns() {
                        push(c);
                    }
                }
            }
            OutputList::Aggregate {
                group_by,
                aggregates,
            } => {
                for e in group_by {
                    for c in e.expr.columns() {
                        push(c);
                    }
                }
                for a in aggregates {
                    if let Some(arg) = a.func.argument() {
                        for c in arg.columns() {
                            push(c);
                        }
                    }
                }
            }
        }
        seen
    }

    /// Validate internal consistency: every table id names a table of the
    /// catalog and every column reference addresses an existing occurrence
    /// and column; aggregate-view style rules are *not* enforced here (they
    /// belong to view registration).
    pub fn validate(&self, catalog: &Catalog) -> Result<(), String> {
        let known = catalog.table_count();
        if let Some(t) = self.tables.iter().find(|t| t.0 as usize >= known) {
            return Err(format!("table id {} is not in the catalog", t.0));
        }
        for c in self.referenced_columns() {
            let Some(&table) = self.tables.get(c.occ.0 as usize) else {
                return Err(format!("column {c} references missing occurrence"));
            };
            if catalog.table(table).columns.len() <= c.col.0 as usize {
                return Err(format!(
                    "column {c} out of range for table {}",
                    catalog.table(table).name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_catalog::tpch::tpch_catalog;
    use mv_expr::{CmpOp, ScalarExpr as S};

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    /// lineitem (occ 0) join orders (occ 1) with a range predicate.
    fn sample_spj() -> SpjgExpr {
        let (_, t) = tpch_catalog();
        let pred = BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)), // l_orderkey = o_orderkey
            BoolExpr::cmp(S::col(cr(1, 1)), CmpOp::Ge, S::lit(50i64)), // o_custkey >= 50
        ]);
        SpjgExpr::spj(
            vec![t.lineitem, t.orders],
            pred,
            vec![
                NamedExpr::new(S::col(cr(0, 1)), "l_partkey"),
                NamedExpr::new(S::col(cr(0, 4)), "l_quantity"),
            ],
        )
    }

    #[test]
    fn spj_accessors() {
        let e = sample_spj();
        assert!(!e.is_aggregate());
        assert_eq!(e.output_arity(), 2);
        assert_eq!(e.output_names(), vec!["l_partkey", "l_quantity"]);
        assert_eq!(e.occurrences().count(), 2);
        assert!(e.count_star_position().is_none());
        assert_eq!(e.aggregate_outputs().len(), 0);
    }

    #[test]
    fn equiv_classes_from_conjuncts() {
        let e = sample_spj();
        let ec = e.equiv_classes();
        assert!(ec.same(cr(0, 0), cr(1, 0)));
        assert!(ec.is_trivial(cr(1, 1)));
    }

    #[test]
    fn aggregate_block_output_positions() {
        let (_, t) = tpch_catalog();
        let e = SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
            vec![
                NamedAgg::new(AggFunc::CountStar, "cnt"),
                NamedAgg::new(AggFunc::Sum(S::col(cr(0, 3))), "total"),
            ],
        );
        assert!(e.is_aggregate());
        assert_eq!(e.output_arity(), 3);
        assert_eq!(e.count_star_position(), Some(1));
        assert_eq!(e.output_names(), vec!["o_custkey", "cnt", "total"]);
    }

    #[test]
    fn referenced_columns_deduplicated() {
        let e = sample_spj();
        let cols = e.referenced_columns();
        assert_eq!(cols, vec![cr(0, 0), cr(1, 0), cr(1, 1), cr(0, 1), cr(0, 4)]);
    }

    #[test]
    fn validate_catches_bad_references() {
        let (cat, t) = tpch_catalog();
        let good = sample_spj();
        assert!(good.validate(&cat).is_ok());
        let bad = SpjgExpr::spj(
            vec![t.region],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 99)), "nope")],
        );
        assert!(bad.validate(&cat).is_err());
        let bad = SpjgExpr::spj(
            vec![t.region],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(3, 0)), "nope")],
        );
        assert!(bad.validate(&cat).is_err());
    }
}
