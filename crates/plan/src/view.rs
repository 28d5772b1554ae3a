//! Materialized-view definitions and the registry of all views known to
//! the matcher.

use crate::spjg::SpjgExpr;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a materialized view (dense index into a [`ViewSet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId(pub u32);

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

/// A materialized view: a name and the defining SPJG expression.
///
/// SQL Server 2000 materializes a view "by creating a unique clustered
/// index on an existing view", and may add secondary indexes (section 2).
/// Neither is modelled here: a view's rows are kept unindexed and every
/// plan over the view scans them whole, so the optimizer costs a full
/// scan (DESIGN.md §18.4).
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// The defining SPJG expression.
    pub expr: SpjgExpr,
}

impl ViewDef {
    /// Define a view.
    pub fn new(name: impl Into<String>, expr: SpjgExpr) -> Self {
        ViewDef {
            name: name.into(),
            expr,
        }
    }

    /// Check the indexed-view rules of section 2: an aggregation view must
    /// output a `COUNT(*)` column (so deletions can be handled
    /// incrementally).
    pub fn check_indexable(&self) -> Result<(), String> {
        if self.expr.is_aggregate() && self.expr.count_star_position().is_none() {
            return Err(format!(
                "aggregation view {} must include a count_big(*) output column",
                self.name
            ));
        }
        Ok(())
    }
}

/// The registry of materialized views.
///
/// The view vector and the name index each sit behind one `Arc`, so
/// cloning the registry — which the online catalog does for every
/// snapshot it publishes, restamps after a write round included — is two
/// pointer bumps whatever the number of views. [`ViewSet::add`] copies
/// the two containers once if a published snapshot still shares them
/// (one pointer bump per definition, one `String` per name) and then
/// appends in place, so a bulk registration pays that copy once.
#[derive(Debug, Clone, Default)]
pub struct ViewSet {
    views: Arc<Vec<Arc<ViewDef>>>,
    by_name: Arc<HashMap<String, ViewId>>,
}

impl ViewSet {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a view. Enforces the indexed-view rules and unique names.
    pub fn add(&mut self, view: ViewDef) -> Result<ViewId, String> {
        view.check_indexable()?;
        if self.by_name.contains_key(&view.name) {
            return Err(format!("duplicate view name {}", view.name));
        }
        let id = ViewId(self.views.len() as u32);
        Arc::make_mut(&mut self.by_name).insert(view.name.clone(), id);
        Arc::make_mut(&mut self.views).push(Arc::new(view));
        Ok(id)
    }

    /// The definition of `id`. Panics if out of range.
    pub fn get(&self, id: ViewId) -> &ViewDef {
        self.views[id.0 as usize].as_ref()
    }

    /// Look up a view by name.
    pub fn by_name(&self, name: &str) -> Option<ViewId> {
        self.by_name.get(name).copied()
    }

    /// All views with ids.
    pub fn iter(&self) -> impl Iterator<Item = (ViewId, &ViewDef)> {
        self.views
            .iter()
            .enumerate()
            .map(|(i, v)| (ViewId(i as u32), v.as_ref()))
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spjg::{AggFunc, NamedAgg, NamedExpr};
    use mv_catalog::tpch::tpch_catalog;
    use mv_expr::{BoolExpr, ColRef, ScalarExpr as S};

    fn spj_view() -> SpjgExpr {
        let (_, t) = tpch_catalog();
        SpjgExpr::spj(
            vec![t.part],
            BoolExpr::Literal(true),
            vec![
                NamedExpr::new(S::col(ColRef::new(0, 0)), "p_partkey"),
                NamedExpr::new(S::col(ColRef::new(0, 1)), "p_name"),
            ],
        )
    }

    fn agg_view(with_count: bool) -> SpjgExpr {
        let (_, t) = tpch_catalog();
        let mut aggs = vec![NamedAgg::new(
            AggFunc::Sum(S::col(ColRef::new(0, 3))),
            "total",
        )];
        if with_count {
            aggs.insert(0, NamedAgg::new(AggFunc::CountStar, "cnt"));
        }
        SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(ColRef::new(0, 1)), "o_custkey")],
            aggs,
        )
    }

    #[test]
    fn aggregation_views_require_count() {
        let mut set = ViewSet::new();
        assert!(set.add(ViewDef::new("good", agg_view(true))).is_ok());
        let err = set.add(ViewDef::new("bad", agg_view(false))).unwrap_err();
        assert!(err.contains("count_big"), "{err}");
    }

    #[test]
    fn registry_lookup() {
        let mut set = ViewSet::new();
        let id = set.add(ViewDef::new("v1", spj_view())).unwrap();
        assert_eq!(set.by_name("v1"), Some(id));
        assert_eq!(set.get(id).name, "v1");
        assert_eq!(set.len(), 1);
        assert!(set.add(ViewDef::new("v1", spj_view())).is_err());
    }
}
