//! The published catalog state: [`CatalogSnapshot`], the one way a new
//! snapshot is published ([`MatchingEngine::publish`]), the data-epoch and
//! freshness API, and the guards that pin a snapshot for a reader.

use crate::descriptor::{DescriptorStore, JoinCore, PreparedView};
use crate::filter::{FilterTree, AGG_NESTING, LEVEL_CONDITIONS, SPJ_LEVELS, SPJ_NESTING};
use crate::stamps::ViewStamps;
use crate::sync::{lock_or_recover, Arc, MutexGuard};
use crate::MatchingEngine;
use mv_catalog::{Catalog, TableId};
use mv_expr::{ColRef, Conjunct};
use mv_plan::{SpjgExpr, ViewId, ViewSet};
use std::collections::{HashMap, HashSet};

/// What makes two join cores one: the FROM list in occurrence order and
/// the canonical non-trivial equivalence classes.
pub(crate) type CoreKey = (Vec<TableId>, Vec<Vec<ColRef>>);

/// The data epoch of `table` in a snapshot's per-table vector (0 for a
/// table the catalog does not know).
pub(crate) fn epoch_of(data_epochs: &[u64], table: TableId) -> u64 {
    data_epochs.get(table.0 as usize).copied().unwrap_or(0)
}

/// One immutable catalog state: the view registry, the prepared match
/// descriptors, both filter trees, the join cores, the check constraints
/// and the removal set, published as a unit.
///
/// Every field a reader touches lives here, so a matcher that pins one
/// snapshot sees one coherent catalog for its whole match — never a
/// half-registered view (say, a registry entry whose filter-tree keys are
/// not filed yet). Writers clone the snapshot, apply their change to the
/// clone, and publish it atomically. The clone allocates nothing per
/// view: the registry, the join cores, the constraints and the trees are
/// one `Arc` each, the prepared descriptors and the view stamps are paged
/// behind `Arc`s, and only the two per-table epoch vectors are copied.
#[derive(Debug, Clone)]
pub(crate) struct CatalogSnapshot {
    /// The registered views (slots and names of removed views stay
    /// reserved).
    pub(crate) views: ViewSet,
    /// The prepared match descriptors, parallel to `views`.
    pub(crate) descriptors: DescriptorStore,
    pub(crate) spj_tree: Arc<FilterTree>,
    pub(crate) agg_tree: Arc<FilterTree>,
    /// The one [`JoinCore`] per [`CoreKey`], built on the write path when
    /// no registered view had it yet. A removed view's core stays.
    pub(crate) cores: Arc<HashMap<CoreKey, Arc<JoinCore>>>,
    /// Check constraints per table, pre-classified, with column references
    /// in table space (`occ = 0`).
    pub(crate) checks: Arc<HashMap<TableId, Vec<Conjunct>>>,
    /// Views dropped with `remove_view`. Matching skips them.
    pub(crate) removed: Arc<HashSet<ViewId>>,
    /// Per-table *catalog* epochs, indexed by `TableId`. A catalog change
    /// bumps exactly the tables it can affect (the view's tables, or the
    /// constraint's table); substitute-cache verdicts and cached plans are
    /// stamped with the epochs of their query's tables and go stale only
    /// when one of *those* moves.
    pub(crate) table_epochs: Vec<u64>,
    /// Per-table *data* epochs, indexed by `TableId`: how many base-table
    /// write rounds [`MatchingEngine::record_base_write`] has recorded.
    /// Distinct from `table_epochs` (which counts *catalog* changes —
    /// registrations, removals, constraints — for cache invalidation):
    /// data epochs measure how far a view's materialized state may trail
    /// the base data.
    pub(crate) data_epochs: Vec<u64>,
    /// How many times any view's lag may have moved: bumped by every
    /// write round and every restamp. A plan searched under a policy that
    /// is not `StaleOk` carries it in its stamp, because the gate's
    /// verdicts are the only way freshness reaches a plan.
    pub(crate) freshness_epoch: u64,
    /// Per-view data-epoch stamp: the data epochs of the view's distinct
    /// base tables (ascending by table) as of the view's registration or
    /// last [`MatchingEngine::mark_views_maintained`]. The gap between a
    /// stamp and `data_epochs` is the view's staleness lag.
    pub(crate) view_stamps: ViewStamps,
    /// Monotone publication counter (diagnostics; every write bumps it).
    pub(crate) epoch: u64,
}

impl CatalogSnapshot {
    pub(crate) fn empty(catalog: &Catalog) -> CatalogSnapshot {
        CatalogSnapshot {
            views: ViewSet::new(),
            descriptors: DescriptorStore::default(),
            spj_tree: Arc::new(FilterTree::new(
                &SPJ_NESTING,
                &LEVEL_CONDITIONS[..SPJ_LEVELS],
            )),
            agg_tree: Arc::new(FilterTree::new(&AGG_NESTING, &LEVEL_CONDITIONS)),
            cores: Arc::new(HashMap::new()),
            checks: Arc::new(HashMap::new()),
            removed: Arc::new(HashSet::new()),
            table_epochs: vec![0; catalog.table_count()],
            data_epochs: vec![0; catalog.table_count()],
            freshness_epoch: 0,
            view_stamps: ViewStamps::default(),
            epoch: 0,
        }
    }

    /// Is `id` a registered view that has not been removed?
    pub(crate) fn is_live(&self, id: ViewId) -> bool {
        (id.0 as usize) < self.views.len() && !self.removed.contains(&id)
    }

    /// Bump the catalog epoch of every given table.
    pub(crate) fn bump_tables(&mut self, tables: impl IntoIterator<Item = TableId>) {
        for t in tables {
            if let Some(e) = self.table_epochs.get_mut(t.0 as usize) {
                *e += 1;
            }
        }
        self.epoch += 1;
    }

    /// Record that some view's lag may have moved.
    pub(crate) fn bump_freshness(&mut self) {
        self.freshness_epoch += 1;
        self.epoch += 1;
    }

    /// The catalog-epoch stamp of a query: the epochs of its distinct
    /// source tables, ascending. Cached verdicts carry the stamp they were
    /// computed under; identical blocks reference equal table sets, so
    /// two stamps for the same key compare positionally.
    pub(crate) fn table_stamp(&self, query: &SpjgExpr) -> Vec<u64> {
        // One allocation: the sorted table ids become their epochs in place.
        let mut stamp: Vec<u64> = query.tables.iter().map(|t| u64::from(t.0)).collect();
        stamp.sort_unstable();
        stamp.dedup();
        let epochs = &self.table_epochs;
        for e in &mut stamp {
            *e = epochs.get(*e as usize).copied().unwrap_or(u64::MAX);
        }
        stamp
    }

    pub(crate) fn live_view_count(&self) -> usize {
        self.views.len() - self.removed.len()
    }

    fn data_epoch(&self, table: TableId) -> u64 {
        epoch_of(&self.data_epochs, table)
    }

    /// How many write rounds the view's materialized state trails the
    /// current base data: the largest per-table gap between the current
    /// data epochs and the view's stamp. Unstamped views (never possible
    /// for a registered view) count as fresh.
    pub(crate) fn view_lag(&self, id: ViewId) -> u64 {
        self.view_stamps
            .get(id)
            .unwrap_or(&[])
            .iter()
            .map(|&(t, stamped)| self.data_epoch(t).saturating_sub(stamped))
            .max()
            .unwrap_or(0)
    }

    /// Restamp a view's data epochs to the current ones. `false` for an
    /// id with no stamp.
    pub(crate) fn restamp(&mut self, id: ViewId) -> bool {
        let Some(stamp) = self.view_stamps.get_mut(id) else {
            return false;
        };
        for (t, stamped) in stamp {
            *stamped = epoch_of(&self.data_epochs, *t);
        }
        true
    }
}

impl MatchingEngine {
    /// Pin the current catalog snapshot.
    pub(crate) fn snapshot(&self) -> Arc<CatalogSnapshot> {
        self.shared.load()
    }

    /// Serialize snapshot builders. [`MatchingEngine::publish`] holds this
    /// guard for its whole clone-modify-publish sequence; under the model
    /// checker the `SKIP_WRITER_LOCK` mutation drops it so the checker can
    /// prove the serialization is load-bearing.
    fn writer_guard(&self) -> Option<MutexGuard<'_, ()>> {
        #[cfg(mv_model)]
        if crate::mutation::active(crate::mutation::SKIP_WRITER_LOCK) {
            return None;
        }
        Some(lock_or_recover(&self.writer))
    }

    /// The one way a snapshot is published: under the writer guard, clone
    /// the current snapshot, let `change` edit the clone, and store it if
    /// `change` returns `Some`. On `None` nothing is published. Callers
    /// check what needs no snapshot before calling, so such a refusal
    /// never takes the guard.
    pub(crate) fn publish<R>(
        &self,
        change: impl FnOnce(&mut CatalogSnapshot) -> Option<R>,
    ) -> Option<R> {
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        let out = change(&mut next)?;
        self.shared.store(Arc::new(next));
        Some(out)
    }

    /// Record a write round against a base table: bump its *data epoch*,
    /// so every view over it becomes one round stale until
    /// [`MatchingEngine::mark_views_maintained`] restamps it, and bump the
    /// freshness counter. Substitute verdicts stay valid — every hit
    /// applies the freshness gate to them afresh. Under `StaleOk` cached plans stay
    /// valid too; under any other policy every cached plan goes stale
    /// (DESIGN.md §17.2). A table the catalog does not know records and
    /// publishes nothing.
    pub fn record_base_write(&self, table: TableId) {
        if (table.0 as usize) >= self.catalog.table_count() {
            return;
        }
        self.publish(|next| {
            next.data_epochs[table.0 as usize] += 1;
            next.bump_freshness();
            Some(())
        });
    }

    /// Stamp the materialized state of every view in `ids` as maintained
    /// up to the current data epochs of its base tables (the maintenance
    /// side calls this once per write round, after applying the round's
    /// deltas to the views' contents). One snapshot clone and one
    /// publication however many views the round touched, and one bump of
    /// the freshness counter: under a policy other than `StaleOk` those
    /// views may newly qualify as substitutes, so every cached plan goes
    /// stale. Substitute verdicts stay valid. Removed and out-of-range ids
    /// are skipped; returns how many views were restamped (an id given
    /// twice is one view), and publishes nothing when that is none.
    pub fn mark_views_maintained(&self, ids: &[ViewId]) -> usize {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        self.publish(|next| {
            let restamped = ids
                .into_iter()
                .filter(|&id| !next.removed.contains(&id) && next.restamp(id))
                .count();
            if restamped == 0 {
                return None;
            }
            next.bump_freshness();
            Some(restamped)
        })
        .unwrap_or(0)
    }

    /// The current data epoch of a base table (write rounds recorded via
    /// [`MatchingEngine::record_base_write`]).
    pub fn data_epoch(&self, table: TableId) -> u64 {
        self.snapshot().data_epoch(table)
    }

    /// How many write rounds a view's materialized state trails the
    /// current base data (the maximum per-table data-epoch gap). `None`
    /// for removed or out-of-range ids.
    pub fn view_staleness(&self, id: ViewId) -> Option<u64> {
        let snap = self.snapshot();
        snap.is_live(id).then(|| snap.view_lag(id))
    }

    /// The per-table data-epoch stamp of a view's materialized state
    /// (ascending by table), for the maintenance auditor. `None` for
    /// removed or out-of-range ids.
    pub fn view_data_epochs(&self, id: ViewId) -> Option<Vec<(TableId, u64)>> {
        let snap = self.snapshot();
        if !snap.is_live(id) {
            return None;
        }
        snap.view_stamps.get(id).map(<[_]>::to_vec)
    }
}

/// A pinned, read-only handle on the registered views: derefs to
/// [`ViewSet`] and keeps the underlying catalog snapshot alive, so the
/// registry it exposes stays coherent (and valid) however many writers
/// publish while the guard is held. Returned by
/// [`MatchingEngine::views`].
#[derive(Debug, Clone)]
pub struct ViewsGuard {
    pub(crate) snap: Arc<CatalogSnapshot>,
}

impl std::ops::Deref for ViewsGuard {
    type Target = ViewSet;
    fn deref(&self) -> &ViewSet {
        &self.snap.views
    }
}

impl ViewsGuard {
    /// The prepared descriptor of a registered (live or removed) view.
    pub fn prepared(&self, id: ViewId) -> &PreparedView {
        self.snap.descriptors.prepared(id)
    }

    /// How many distinct [`JoinCore`]s the snapshot holds.
    pub fn join_core_count(&self) -> usize {
        self.snap.cores.len()
    }
}

/// A pinned, read-only handle on the declared check constraints: derefs
/// to the per-table conjunct map. Returned by
/// [`MatchingEngine::check_constraints`].
#[derive(Debug, Clone)]
pub struct ChecksGuard {
    pub(crate) snap: Arc<CatalogSnapshot>,
}

impl std::ops::Deref for ChecksGuard {
    type Target = HashMap<TableId, Vec<Conjunct>>;
    fn deref(&self) -> &HashMap<TableId, Vec<Conjunct>> {
        &self.snap.checks
    }
}
