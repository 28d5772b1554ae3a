//! The catalog's write side: registering and removing views and
//! declaring check constraints. Each write is one
//! [`MatchingEngine::publish`].

use crate::descriptor::{JoinCore, PreparedView};
use crate::filter::SPJ_LEVELS;
use crate::snapshot::{epoch_of, CatalogSnapshot};
use crate::summary::ExprSummary;
use crate::sync::Arc;
use crate::MatchingEngine;
use mv_catalog::TableId;
use mv_expr::{classify, BoolExpr, OccId};
use mv_plan::{ViewDef, ViewId};

impl MatchingEngine {
    /// Register a materialized view: validates it, computes its summary
    /// and filter keys, inserts it into the appropriate filter tree, and
    /// publishes the next snapshot. Runs concurrently with matching.
    pub fn add_view(&self, def: ViewDef) -> Result<ViewId, String> {
        Ok(self.add_views(vec![def])?[0])
    }

    /// Register a batch of views with one snapshot clone and one
    /// publication — all-or-nothing: if any definition is rejected,
    /// nothing is published and the catalog is unchanged. Building a
    /// 100k-view catalog this way costs one copy-on-write pass instead of
    /// one per view.
    pub fn add_views(&self, defs: Vec<ViewDef>) -> Result<Vec<ViewId>, String> {
        let n = defs.len();
        let mut registered = Ok(Vec::new());
        self.publish(|next| {
            registered = defs
                .into_iter()
                .map(|def| self.register_into(next, def))
                .collect();
            registered.is_ok().then_some(())
        });
        if registered.is_ok() {
            self.stats.record_registrations(n);
        }
        registered
    }

    /// Validate, prepare and file one view into a snapshot under
    /// construction; the caller publishes (or discards) `next`.
    fn register_into(&self, next: &mut CatalogSnapshot, def: ViewDef) -> Result<ViewId, String> {
        def.expr.validate(&self.catalog)?;
        let vsum = ExprSummary::analyze(&def.expr);
        let core = Arc::make_mut(&mut next.cores)
            .entry((def.expr.tables.clone(), vsum.ec.nontrivial_classes()))
            .or_insert_with(|| {
                Arc::new(JoinCore::new(
                    &self.catalog,
                    &self.config,
                    &def.expr.tables,
                    &vsum.ec,
                ))
            })
            .clone();
        let keys = self.view_keys(&def.expr, &vsum, &core.fk_graph);
        let prepared = PreparedView::with_core(&self.catalog, &self.config, &def.expr, vsum, core);
        let is_agg = def.expr.is_aggregate();
        let tables: Vec<TableId> = prepared.tables().collect();
        let id = next.views.add(def)?;
        // A freshly registered view is materialized from current base
        // data: stamp it with the current data epochs of its tables.
        debug_assert_eq!(next.view_stamps.get(id), None, "stamps trail the registry");
        let data_epochs = &next.data_epochs;
        next.view_stamps
            .push(tables.iter().map(|&t| (t, epoch_of(data_epochs, t))));
        next.descriptors.push(Arc::new(prepared));
        if is_agg {
            Arc::make_mut(&mut next.agg_tree).insert(&keys, id);
        } else {
            Arc::make_mut(&mut next.spj_tree).insert(&keys[..SPJ_LEVELS], id);
        }
        // A new view can only change results of queries over (a subset
        // of) its own tables.
        #[cfg(mv_model)]
        let tables = if crate::mutation::active(crate::mutation::SKIP_EPOCH_BUMP_ON_ADD) {
            Vec::new()
        } else {
            tables
        };
        next.bump_tables(tables);
        Ok(id)
    }

    /// Drop a view from matching: it is removed from its filter tree and
    /// never considered again. The definition (and its name) stay
    /// registered — this mirrors dropping a cached query result, the
    /// intro's "cached results can be treated as temporary materialized
    /// views" scenario, where entries come and go. Runs concurrently with
    /// matching: in-flight matchers keep their pinned snapshot, new
    /// matches see the removal. `false`, publishing nothing, for a removed
    /// or out-of-range id.
    pub fn remove_view(&self, id: ViewId) -> bool {
        let removed = self.publish(|next| {
            if !next.is_live(id) {
                return None;
            }
            let in_tree = self.unfile(next, id);
            debug_assert!(in_tree, "registered view must be present in its tree");
            let tables: Vec<TableId> = next.descriptors.prepared(id).tables().collect();
            Arc::make_mut(&mut next.removed).insert(id);
            // Invalidate lazily and precisely: only entries whose query
            // touches one of the removed view's tables can have included it.
            #[cfg(mv_model)]
            let tables = if crate::mutation::active(crate::mutation::SKIP_EPOCH_BUMP_ON_REMOVE) {
                Vec::new()
            } else {
                tables
            };
            next.bump_tables(tables);
            Some(())
        });
        if removed.is_some() {
            self.stats.record_removal();
        }
        removed.is_some()
    }

    /// Take a live view out of its filter tree, under the keys its
    /// definition derives. `false` if it is not live or not filed there.
    pub(crate) fn unfile(&self, next: &mut CatalogSnapshot, id: ViewId) -> bool {
        let Some(keys) = self.view_filter_keys_in(next, id) else {
            return false;
        };
        if next.views.get(id).expr.is_aggregate() {
            Arc::make_mut(&mut next.agg_tree).remove(&keys, id)
        } else {
            Arc::make_mut(&mut next.spj_tree).remove(&keys[..SPJ_LEVELS], id)
        }
    }

    /// Declare a check constraint on a base table. The predicate uses
    /// `occ = 0` column references into the table. During matching, a
    /// check constraint whose columns are all NOT NULL is folded into the
    /// query's antecedent (section 3.1.2: "check constraints on the tables
    /// of a query can be added to the where-clause without changing the
    /// query result"), so view predicates it implies no longer block
    /// matching. A check over a nullable column is kept but not folded:
    /// SQL's CHECK passes on UNKNOWN, so it admits NULL rows it says
    /// nothing about.
    pub fn add_check_constraint(&self, table: TableId, predicate: BoolExpr) -> Result<(), String> {
        if (table.0 as usize) >= self.catalog.table_count() {
            return Err(format!(
                "check constraint on unknown table id {} (the catalog has {} tables)",
                table.0,
                self.catalog.table_count()
            ));
        }
        let def = self.catalog.table(table);
        let n_cols = def.columns.len() as u32;
        for c in predicate.columns() {
            if c.occ != OccId(0) || c.col.0 >= n_cols {
                return Err(format!(
                    "check constraint column {c} out of range for table {}",
                    def.name
                ));
            }
        }
        self.publish(|next| {
            Arc::make_mut(&mut next.checks)
                .entry(table)
                .or_default()
                .extend(classify(predicate));
            // Only queries referencing `table` fold this constraint into
            // their effective summary, so only their cached results can
            // change.
            next.bump_tables([table]);
            Some(())
        });
        Ok(())
    }
}
