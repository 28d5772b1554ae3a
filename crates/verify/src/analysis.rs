//! The analyzer's own predicate analysis, re-derived from raw conjuncts.
//!
//! This deliberately duplicates (in much simpler form) what
//! `mv-core`'s `ExprSummary` computes: the point of the analyzer is to be
//! an *independent* re-derivation of the paper's conditions, so a bug in
//! the matcher's summary machinery cannot hide from the checker. Only the
//! shared *data types* (`EquivClasses`, `Interval`, `Template`) are reused.

use mv_catalog::{Catalog, TableId};
use mv_expr::{BoolExpr, ColRef, Conjunct, EquivClasses, Interval, Template};
use mv_plan::SpjgExpr;
use std::collections::HashMap;

/// Per-equivalence-class range state: a folded interval, or "poisoned"
/// when an intersection failed (incomparable value types meeting in one
/// class). Rules skip poisoned roots rather than reasoning from a wrong
/// interval.
#[derive(Debug, Clone)]
pub enum RangeState {
    Folded(Interval),
    Poisoned,
}

/// Folded ranges and residual templates of one conjunct list, relative to
/// an externally supplied equivalence relation (usually the query's).
#[derive(Debug, Default)]
pub struct Profile {
    /// Intersection of all foldable range conjuncts, per EC root.
    pub ranges: HashMap<ColRef, RangeState>,
    /// Residual conjuncts plus range conjuncts that would not fold
    /// (`<>`, incomparable constant), as shallow templates with the
    /// originating predicate alongside.
    pub residuals: Vec<(Template, BoolExpr)>,
    /// Column-equality pairs seen in the conjunct list.
    pub equalities: Vec<(ColRef, ColRef)>,
}

impl Profile {
    /// Fold `conjuncts` relative to `ec`.
    pub fn build<'a>(conjuncts: impl IntoIterator<Item = &'a Conjunct>, ec: &EquivClasses) -> Self {
        let mut p = Profile::default();
        for conj in conjuncts {
            match conj {
                Conjunct::ColumnEq(a, b) => p.equalities.push((*a, *b)),
                Conjunct::Range { col, op, value } => {
                    let mut iv = Interval::unconstrained();
                    if iv.apply(*op, value) {
                        p.add_range(ec.find(*col), iv);
                    } else {
                        // Mirrors the summary's demotion: `<>` and
                        // type-incomparable constants become residuals.
                        let b = conj.to_bool();
                        p.residuals.push((Template::of_bool(&b), b));
                    }
                }
                Conjunct::Residual(b) => {
                    p.residuals.push((Template::of_bool(b), b.clone()));
                }
            }
        }
        p
    }

    fn add_range(&mut self, root: ColRef, iv: Interval) {
        let entry = self
            .ranges
            .entry(root)
            .or_insert(RangeState::Folded(Interval::unconstrained()));
        if let RangeState::Folded(cur) = entry {
            match cur.clone().intersect(&iv) {
                Some(merged) => *entry = RangeState::Folded(merged),
                None => *entry = RangeState::Poisoned,
            }
        }
    }

    /// The folded interval at `root`: unconstrained when absent, `None`
    /// when poisoned.
    pub fn range_at(&self, root: ColRef) -> Option<Interval> {
        match self.ranges.get(&root) {
            None => Some(Interval::unconstrained()),
            Some(RangeState::Folded(iv)) => Some(iv.clone()),
            Some(RangeState::Poisoned) => None,
        }
    }
}

/// Equivalence classes from the column-equality conjuncts of several
/// conjunct lists.
pub fn ec_of<'a>(lists: impl IntoIterator<Item = &'a [Conjunct]>) -> EquivClasses {
    let mut ec = EquivClasses::new();
    for list in lists {
        for conj in list {
            if let Conjunct::ColumnEq(a, b) = conj {
                ec.union(*a, *b);
            }
        }
    }
    ec
}

/// Check-constraint conjuncts of `table`, remapped from table space
/// (`occ = 0`) onto occurrence `occ`.
pub fn checks_for_occ(
    checks: &HashMap<TableId, Vec<Conjunct>>,
    table: TableId,
    occ: u32,
) -> Vec<Conjunct> {
    let Some(conjs) = checks.get(&table) else {
        return Vec::new();
    };
    conjs
        .iter()
        .filter_map(|c| c.try_map_columns(&mut |cr| Some(ColRef::new(occ, cr.col.0))))
        .collect()
}

/// All check conjuncts of an expression's occurrences, in that
/// expression's occurrence space.
pub fn checks_of_expr(checks: &HashMap<TableId, Vec<Conjunct>>, expr: &SpjgExpr) -> Vec<Conjunct> {
    let mut out = Vec::new();
    for (occ, table) in expr.occurrences() {
        out.extend(checks_for_occ(checks, table, occ.0));
    }
    out
}

/// Is `c` null-rejecting under the given conjuncts? True when some range
/// constrains a member of `c`'s class, a residual comparison / LIKE /
/// IS NOT NULL references a class member, or the class equates `c` with
/// another column. This is the semantic justification behind the paper's
/// §3.2 requirement that nullable FK columns be safe to join through; it
/// accepts a superset of what the matcher's `is_null_rejecting` accepts.
pub fn null_rejecting(conjuncts: &[Conjunct], ec: &EquivClasses, c: ColRef) -> bool {
    let class = ec.class_of(c);
    if class.len() > 1 {
        return true;
    }
    let in_class = |x: ColRef| class.contains(&x);
    conjuncts.iter().any(|conj| match conj {
        Conjunct::ColumnEq(a, b) => in_class(*a) || in_class(*b),
        Conjunct::Range { col, .. } => in_class(*col),
        Conjunct::Residual(b) => bool_null_rejects(b, &in_class),
    })
}

/// Does predicate `b` reject NULL in any column satisfying `in_class`?
/// Only top-level conjunctive structure is inspected; comparisons, LIKE,
/// and `IS NOT NULL` reject NULL operands under SQL three-valued logic.
fn bool_null_rejects(b: &BoolExpr, in_class: &impl Fn(ColRef) -> bool) -> bool {
    match b {
        BoolExpr::And(parts) => parts.iter().any(|p| bool_null_rejects(p, in_class)),
        BoolExpr::Compare { left, right, .. } => {
            left.columns().into_iter().any(in_class) || right.columns().into_iter().any(in_class)
        }
        BoolExpr::Like { expr, .. } => expr.columns().into_iter().any(in_class),
        BoolExpr::IsNull {
            expr,
            negated: true,
        } => expr.columns().into_iter().any(in_class),
        _ => false,
    }
}

/// Does every referenced column of `expr` stay inside the catalog's
/// bounds? Returns the offending references.
pub fn out_of_bounds_columns(catalog: &Catalog, expr: &SpjgExpr) -> Vec<ColRef> {
    let n = expr.tables.len();
    expr.referenced_columns()
        .into_iter()
        .filter(|c| {
            (c.occ.0 as usize) >= n
                || (c.col.0 as usize) >= catalog.table(expr.tables[c.occ.0 as usize]).columns.len()
        })
        .collect()
}
