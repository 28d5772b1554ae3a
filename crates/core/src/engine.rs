//! The matching engine: view registration, filter-tree maintenance, and
//! the `find_substitutes` entry point that a transformation-based optimizer
//! invokes as its view-matching rule.

use crate::cache::{fingerprint, CacheLookup, EpochCache, SubstituteCache};
use crate::descriptor::{DescriptorStore, JoinCore, PreparedView};
use crate::filter::{normalized, FilterTree, LevelSearch};
use crate::fkgraph::{compute_hub, FkGraph};
use crate::matching::{match_view_prepared, FreshnessPolicy, MatchConfig, PreparedQuery};
use crate::stamps::ViewStamps;
use crate::stats::{AtomicMatchStats, MatchStats};
use crate::summary::ExprSummary;
use mv_catalog::{Catalog, ColumnId, TableId};
use mv_expr::{classify, BoolExpr, ColRef, Conjunct, EquivClasses, OccId, Template};
use mv_parallel::sync::{lock_or_recover, Arc, Mutex, MutexGuard};
use mv_parallel::Published;
use mv_plan::{AggFunc, Freshness, SpjgExpr, Substitute, ViewDef, ViewId, ViewSet};
use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Number of filter-tree levels for SPJ views (hub, source tables, output
/// expressions, output columns, residual predicates, range-constrained
/// columns).
pub const SPJ_LEVELS: usize = 6;
/// Aggregation views add grouping expressions and grouping columns.
pub const AGG_LEVELS: usize = 8;

/// Human-readable names of the filter-tree levels, in key order (the
/// first [`SPJ_LEVELS`] apply to the SPJ tree). Diagnostics use these to
/// say *which* partitioning condition wrongly pruned a view.
pub const LEVEL_NAMES: [&str; AGG_LEVELS] = [
    "hub",
    "source-tables",
    "output-exprs",
    "output-cols",
    "residuals",
    "range-cols",
    "grouping-exprs",
    "grouping-cols",
];

/// Filter-tree levels at which the paper-faithful strict expression
/// filter ([`MatchConfig::strict_expression_filter`], section 4.2.7) is
/// *deliberately* incomplete: the matcher can recompute a complex output
/// expression from a view's plain columns, but the strict filter requires
/// the rendered template to appear in the view's output-expression key.
/// A view pruned *only* at these levels while the matcher accepts it is
/// documented conservatism, not an index fault; any other rejecting level
/// is a genuine completeness violation (rule MV102).
pub fn strict_filter_exempt_levels(is_aggregate_view: bool) -> &'static [usize] {
    if is_aggregate_view {
        &[2, 6]
    } else {
        &[2]
    }
}

/// Interner mapping template texts to filter-key tokens, and (FROM list,
/// equivalence classes) pairs to the one shared [`JoinCore`] with them.
///
/// Tokens and cores are minted only on the **write path** (`add_view`),
/// which builds the next immutable catalog snapshot; the query-side read
/// path uses [`Interner::lookup`] against its pinned snapshot, which never
/// allocates or mutates, and reads a view's core off its descriptor.
/// This is what lets the interner live lock-free inside
/// [`CatalogSnapshot`], and it also keeps the maps' size proportional to
/// the registered views instead of growing with every distinct query ever
/// matched.
#[derive(Debug, Default, Clone)]
struct Interner {
    map: HashMap<String, u64>,
    /// The one core per key. A removed view's core stays.
    cores: HashMap<CoreKey, Arc<JoinCore>>,
}

/// What makes two join cores one: the FROM list in occurrence order and
/// the canonical non-trivial equivalence classes.
type CoreKey = (Vec<TableId>, Vec<Vec<ColRef>>);

/// Query-side token for a template text no registered view ever produced.
/// Real tokens are minted sequentially from 0, so this value cannot
/// collide. In a superset-level search an unknown token correctly empties
/// the result (no view key contains it); in a subset-level search it
/// merely widens the allowed set, which is equally harmless.
pub const UNKNOWN_TOKEN: u64 = u64::MAX;

impl Interner {
    /// Token for `s`, minting one only if the text was never seen —
    /// lookup first, so the common already-interned case allocates
    /// nothing.
    fn intern(&mut self, s: &str) -> u64 {
        if let Some(&t) = self.map.get(s) {
            return t;
        }
        let next = self.map.len() as u64;
        self.map.insert(s.to_string(), next);
        next
    }

    /// Read-only token lookup for the query path.
    fn lookup(&self, s: &str) -> u64 {
        self.map.get(s).copied().unwrap_or(UNKNOWN_TOKEN)
    }

    /// The join core with this FROM list and these classes, built when
    /// no registered view had it yet.
    fn core(
        &mut self,
        catalog: &Catalog,
        config: &MatchConfig,
        tables: &[TableId],
        ec: &EquivClasses,
    ) -> Arc<JoinCore> {
        let core = self
            .cores
            .entry((tables.to_vec(), ec.nontrivial_classes()))
            .or_insert_with(|| Arc::new(JoinCore::new(catalog, config, tables, ec)));
        Arc::clone(core)
    }
}

/// Token for a base table. Public so `mv-audit` can decode and rebuild
/// level keys when validating the stored index entries.
pub fn table_token(t: TableId) -> u64 {
    t.0 as u64
}

/// Token for a base-qualified column. The filter tree compares columns at
/// the base-table level (not per occurrence), which is exact for
/// expressions without self-joins and conservative (never drops a valid
/// candidate) with them.
pub fn col_token(table: TableId, col: ColumnId) -> u64 {
    ((table.0 as u64) << 32) | col.0 as u64
}

/// Inverse of [`col_token`]: the `(table, column)` pair a column-level
/// key token denotes. Meaningful only for tokens taken from a
/// column-keyed filter level.
pub fn decode_col_token(token: u64) -> (TableId, ColumnId) {
    (TableId((token >> 32) as u32), ColumnId(token as u32))
}

fn base_col_token(expr: &SpjgExpr, c: ColRef) -> u64 {
    col_token(expr.table_of(c.occ), c.col)
}

/// The data epoch of `table` in a snapshot's per-table vector (0 for a
/// table the catalog does not know).
fn epoch_of(data_epochs: &[u64], table: TableId) -> u64 {
    data_epochs.get(table.0 as usize).copied().unwrap_or(0)
}

/// One immutable catalog state: the view registry, the prepared match
/// descriptors, both filter trees, the interner, the check constraints and
/// the removal set, published as a unit.
///
/// Every field a reader touches lives here, so a matcher that pins one
/// snapshot sees one coherent catalog for its whole match — never a
/// half-registered view (say, a registry entry whose filter-tree keys are
/// not filed yet). Writers clone the snapshot, apply their change to the
/// clone, and publish it atomically. The clone allocates nothing per
/// view: the registry, the interner, the constraints and the trees are
/// one `Arc` each, the prepared descriptors and the view stamps are paged
/// behind `Arc`s, and only the two per-table epoch vectors are copied.
#[derive(Debug, Clone)]
struct CatalogSnapshot {
    /// The registered views (slots and names of removed views stay
    /// reserved).
    views: ViewSet,
    /// The prepared match descriptors, parallel to `views`.
    descriptors: DescriptorStore,
    spj_tree: Arc<FilterTree>,
    agg_tree: Arc<FilterTree>,
    interner: Arc<Interner>,
    /// Check constraints per table, pre-classified, with column references
    /// in table space (`occ = 0`).
    checks: Arc<HashMap<TableId, Vec<Conjunct>>>,
    /// Views dropped with `remove_view`. Matching skips them.
    removed: Arc<HashSet<ViewId>>,
    /// Per-table *catalog* epochs, indexed by `TableId`. A catalog change
    /// bumps exactly the tables it can affect (the view's tables, or the
    /// constraint's table); substitute-cache verdicts and cached plans are
    /// stamped with the epochs of their query's tables and go stale only
    /// when one of *those* moves.
    table_epochs: Vec<u64>,
    /// Per-table *data* epochs, indexed by `TableId`: how many base-table
    /// write rounds [`MatchingEngine::record_base_write`] has recorded.
    /// Distinct from `table_epochs` (which counts *catalog* changes —
    /// registrations, removals, constraints — for cache invalidation):
    /// data epochs measure how far a view's materialized state may trail
    /// the base data.
    data_epochs: Vec<u64>,
    /// How many times any view's lag may have moved: bumped by every
    /// write round and every restamp. A plan searched under a policy that
    /// is not `StaleOk` carries it in its stamp, because the gate's
    /// verdicts are the only way freshness reaches a plan.
    freshness_epoch: u64,
    /// Per-view data-epoch stamp: the data epochs of the view's distinct
    /// base tables (ascending by table) as of the view's registration or
    /// last [`MatchingEngine::mark_views_maintained`]. The gap between a
    /// stamp and `data_epochs` is the view's staleness lag.
    view_stamps: ViewStamps,
    /// Monotone publication counter (diagnostics; every write bumps it).
    epoch: u64,
}

impl CatalogSnapshot {
    fn empty(catalog: &Catalog) -> CatalogSnapshot {
        CatalogSnapshot {
            views: ViewSet::new(),
            descriptors: DescriptorStore::default(),
            spj_tree: Arc::new(FilterTree::new(SPJ_LEVELS)),
            agg_tree: Arc::new(FilterTree::new(AGG_LEVELS)),
            interner: Arc::new(Interner::default()),
            checks: Arc::new(HashMap::new()),
            removed: Arc::new(HashSet::new()),
            table_epochs: vec![0; catalog.table_count()],
            data_epochs: vec![0; catalog.table_count()],
            freshness_epoch: 0,
            view_stamps: ViewStamps::default(),
            epoch: 0,
        }
    }

    /// Bump the catalog epoch of every given table.
    fn bump_tables(&mut self, tables: impl IntoIterator<Item = TableId>) {
        for t in tables {
            if let Some(e) = self.table_epochs.get_mut(t.0 as usize) {
                *e += 1;
            }
        }
        self.epoch += 1;
    }

    /// Record that some view's lag may have moved.
    fn bump_freshness(&mut self) {
        self.freshness_epoch += 1;
        self.epoch += 1;
    }

    /// The catalog-epoch stamp of a query: the epochs of its distinct
    /// source tables, ascending. Cached verdicts carry the stamp they were
    /// computed under; equal renders reference equal table sets, so two
    /// stamps for the same fingerprint compare positionally.
    fn table_stamp(&self, query: &SpjgExpr) -> Vec<u64> {
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

    fn live_view_count(&self) -> usize {
        self.views.len() - self.removed.len()
    }

    fn data_epoch(&self, table: TableId) -> u64 {
        epoch_of(&self.data_epochs, table)
    }

    /// How many write rounds the view's materialized state trails the
    /// current base data: the largest per-table gap between the current
    /// data epochs and the view's stamp. Unstamped views (never possible
    /// for a registered view) count as fresh.
    fn view_lag(&self, id: ViewId) -> u64 {
        self.view_stamps
            .get(id)
            .unwrap_or(&[])
            .iter()
            .map(|&(t, stamped)| self.data_epoch(t).saturating_sub(stamped))
            .max()
            .unwrap_or(0)
    }
}

/// The plan cache (DESIGN.md §11.4): an optimizer-config tag and the bound
/// block as the guard, the optimizer's result — a type this crate does not
/// know — as the value.
type PlanCache = EpochCache<(u64, SpjgExpr), Arc<dyn Any + Send + Sync>>;

/// The plan cache holds `1 / PLAN_CACHE_SHARE` of the substitute cache's
/// capacity: 64 plans at the default 1,024, so a capacity of 0 turns both
/// off (DESIGN.md §11.4 has why this share).
const PLAN_CACHE_SHARE: usize = 16;

/// Outcome of [`MatchingEngine::probe_plan`].
#[derive(Debug)]
pub enum PlanProbe<P> {
    /// The plan cached for this (tag, block), valid under the pinned
    /// snapshot's epochs.
    Hit(P),
    /// No valid plan: search, then hand the ticket to
    /// [`MatchingEngine::insert_plan`].
    Miss(PlanTicket),
}

/// What a plan-cache miss hands back for the insert: the key's hash and
/// tag, and the epoch stamp read from the snapshot pinned *before* the
/// search — so the stamp cannot be taken after a registration the search
/// did not see.
#[derive(Debug)]
pub struct PlanTicket {
    /// `(hash, tag, stamp)`; `None` with the plan cache off.
    key: Option<(u64, u64, Vec<u64>)>,
}

/// The engine owning the published catalog snapshot, the substitute and
/// plan caches and the instrumentation counters.
///
/// # Concurrency
///
/// The engine is an *online catalog*: every method — registration
/// (`add_view`, `add_views`, `remove_view`, `add_check_constraint`) as
/// well as the whole matching path (`find_substitutes`, `candidates`,
/// `match_one`) — takes `&self`, so writers run concurrently with
/// matchers. Writers serialize among themselves on an internal mutex,
/// build the next immutable [`CatalogSnapshot`] by copy-on-write, and
/// publish it with one atomic pointer swap; readers pin the current
/// snapshot once per match and never observe a half-applied change. A
/// multi-threaded optimizer host can therefore share one engine behind an
/// `Arc`, match queries from any number of threads, and register views
/// mid-traffic.
#[derive(Debug)]
pub struct MatchingEngine {
    catalog: Catalog,
    config: MatchConfig,
    /// The atomically published catalog snapshot.
    shared: Published<CatalogSnapshot>,
    /// Serializes snapshot builders; never held by readers.
    writer: Mutex<()>,
    stats: AtomicMatchStats,
    /// Fingerprint-keyed cache of structural verdicts, invalidated per
    /// table via the snapshot's `table_epochs`.
    cache: SubstituteCache,
    /// Block-keyed cache of whole-query plans, invalidated per table via
    /// the snapshot's `table_epochs` and, unless the freshness policy is
    /// `StaleOk`, by its `freshness_epoch`.
    plans: PlanCache,
}

// Compile-time guarantee that the engine stays shareable across threads:
// a reintroduced `RefCell`/`Rc` anywhere in its fields breaks the build
// here, not in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MatchingEngine>()
};

impl MatchingEngine {
    /// Create an engine over a schema.
    pub fn new(catalog: Catalog, config: MatchConfig) -> Self {
        let cache = SubstituteCache::new(config.substitute_cache_capacity);
        let plans = PlanCache::new(config.substitute_cache_capacity / PLAN_CACHE_SHARE);
        let shared = Published::new(CatalogSnapshot::empty(&catalog));
        MatchingEngine {
            catalog,
            config,
            shared,
            writer: Mutex::new(()),
            stats: AtomicMatchStats::default(),
            cache,
            plans,
        }
    }

    /// Pin the current catalog snapshot.
    fn snapshot(&self) -> Arc<CatalogSnapshot> {
        self.shared.load()
    }

    /// Serialize snapshot builders. Every clone-modify-publish sequence
    /// holds this guard for its whole duration; under the model checker
    /// the `SKIP_WRITER_LOCK` mutation drops it so the checker can prove
    /// the serialization is load-bearing.
    fn writer_guard(&self) -> Option<MutexGuard<'_, ()>> {
        #[cfg(mv_model)]
        if crate::mutation::active(crate::mutation::SKIP_WRITER_LOCK) {
            return None;
        }
        Some(lock_or_recover(&self.writer))
    }

    /// Drop a view from matching: it is removed from its filter tree and
    /// never considered again. The definition (and its name) stay
    /// registered — this mirrors dropping a cached query result, the
    /// intro's "cached results can be treated as temporary materialized
    /// views" scenario, where entries come and go. Runs concurrently with
    /// matching: in-flight matchers keep their pinned snapshot, new
    /// matches see the removal.
    pub fn remove_view(&self, id: ViewId) -> bool {
        let _writer = self.writer_guard();
        let cur = self.snapshot();
        if cur.removed.contains(&id) || (id.0 as usize) >= cur.views.len() {
            return false;
        }
        let mut next = (*cur).clone();
        drop(cur);
        let in_tree = self.unfile(&mut next, id);
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
        self.shared.store(Arc::new(next));
        self.stats.record_removal();
        true
    }

    /// Take a live view out of its filter tree, under the keys its
    /// definition derives. `false` if it is not live or not filed there.
    fn unfile(&self, next: &mut CatalogSnapshot, id: ViewId) -> bool {
        let Some(keys) = self.view_filter_keys_in(next, id) else {
            return false;
        };
        if next.views.get(id).expr.is_aggregate() {
            Arc::make_mut(&mut next.agg_tree).remove(&keys, id)
        } else {
            Arc::make_mut(&mut next.spj_tree).remove(&keys[..SPJ_LEVELS], id)
        }
    }

    /// Number of live (non-removed) views.
    pub fn live_view_count(&self) -> usize {
        self.snapshot().live_view_count()
    }

    /// The publication count of the current snapshot (diagnostics: every
    /// registration, removal or constraint declaration bumps it).
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Declare a check constraint on a base table. The predicate uses
    /// `occ = 0` column references into the table. During matching, check
    /// constraints are folded into the query's antecedent (section 3.1.2:
    /// "check constraints on the tables of a query can be added to the
    /// where-clause without changing the query result"), so view
    /// predicates implied by a constraint no longer block matching.
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
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        Arc::make_mut(&mut next.checks)
            .entry(table)
            .or_default()
            .extend(classify(predicate));
        // Only queries referencing `table` fold this constraint into their
        // effective summary, so only their cached results can change — and
        // with constraint folding disabled no summary changes at all, so
        // bumping would spuriously invalidate every cached result over
        // `table`. (The constraint is still recorded: a later engine with
        // folding enabled sees it.)
        if self.config.use_check_constraints {
            next.bump_tables([table]);
        } else {
            next.epoch += 1;
        }
        self.shared.store(Arc::new(next));
        Ok(())
    }

    /// Record a write round against a base table: bump its *data epoch*,
    /// so every view over it becomes one round stale until
    /// [`MatchingEngine::mark_views_maintained`] restamps it, and bump the
    /// freshness counter. Substitute verdicts stay valid — freshness is
    /// applied each time one is rebuilt. Under `StaleOk` cached plans stay
    /// valid too; under any other policy every cached plan goes stale
    /// (DESIGN.md §17.2). A table the catalog does not know records and
    /// publishes nothing.
    pub fn record_base_write(&self, table: TableId) {
        if (table.0 as usize) >= self.catalog.table_count() {
            return;
        }
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        next.data_epochs[table.0 as usize] += 1;
        next.bump_freshness();
        self.shared.store(Arc::new(next));
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
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        let mut restamped = 0;
        for id in ids {
            if next.removed.contains(&id) {
                continue;
            }
            let Some(stamp) = next.view_stamps.get_mut(id) else {
                continue;
            };
            for (t, stamped) in stamp {
                *stamped = epoch_of(&next.data_epochs, *t);
            }
            restamped += 1;
        }
        if restamped == 0 {
            return 0;
        }
        next.bump_freshness();
        self.shared.store(Arc::new(next));
        restamped
    }

    /// [`MatchingEngine::mark_views_maintained`] for one view. Returns
    /// `false` for removed or out-of-range ids.
    pub fn mark_view_maintained(&self, id: ViewId) -> bool {
        self.mark_views_maintained(&[id]) == 1
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
        if snap.removed.contains(&id) || (id.0 as usize) >= snap.views.len() {
            return None;
        }
        Some(snap.view_lag(id))
    }

    /// The per-table data-epoch stamp of a view's materialized state
    /// (ascending by table), for the maintenance auditor. `None` for
    /// removed or out-of-range ids.
    pub fn view_data_epochs(&self, id: ViewId) -> Option<Vec<(TableId, u64)>> {
        let snap = self.snapshot();
        if snap.removed.contains(&id) {
            return None;
        }
        snap.view_stamps.get(id).map(<[_]>::to_vec)
    }

    /// Corruption hook for the maintenance audit suite: overwrite a
    /// view's data-epoch stamp with epochs `lead` rounds *ahead* of the
    /// current table epochs — a stamp no correct maintenance schedule can
    /// produce. Never call outside tests.
    #[doc(hidden)]
    pub fn corrupt_view_stamp_for_audit(&self, id: ViewId, lead: u64) -> bool {
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        let Some(stamp) = next.view_stamps.get_mut(id) else {
            return false;
        };
        for (t, stamped) in stamp {
            *stamped = epoch_of(&next.data_epochs, *t) + lead;
        }
        next.bump_freshness();
        self.shared.store(Arc::new(next));
        true
    }

    /// Analyze a query, folding in check constraints when enabled.
    pub fn query_summary(&self, query: &SpjgExpr) -> ExprSummary {
        self.query_summary_in(&self.snapshot(), query)
    }

    /// [`MatchingEngine::query_summary`] against a pinned snapshot — the
    /// matching pipeline calls this so one match sees one constraint set.
    fn query_summary_in(&self, snap: &CatalogSnapshot, query: &SpjgExpr) -> ExprSummary {
        if !self.config.use_check_constraints || snap.checks.is_empty() {
            return ExprSummary::analyze(query);
        }
        let mut extras = Vec::new();
        for (occ, table) in query.occurrences() {
            if let Some(conjs) = snap.checks.get(&table) {
                for conj in conjs {
                    // The closure is total, so the remap cannot fail; if a
                    // future edit breaks that, dropping the conjunct only
                    // weakens the antecedent (safe direction) — flag it in
                    // debug builds instead of panicking in release.
                    let mapped = conj.try_map_columns(&mut |c| Some(ColRef { occ, col: c.col }));
                    debug_assert!(mapped.is_some(), "total column remap cannot fail");
                    extras.extend(mapped);
                }
            }
        }
        ExprSummary::analyze_with_extras(query, &extras)
    }

    /// The schema.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The configuration.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// The registered views, pinned at the current snapshot. The guard
    /// derefs to [`ViewSet`], so existing `engine.views().get(id)` call
    /// sites keep working; hold it across several reads to see one
    /// coherent registry while writers keep publishing.
    pub fn views(&self) -> ViewsGuard {
        ViewsGuard {
            snap: self.snapshot(),
        }
    }

    /// The declared check constraints, pre-classified per table, with
    /// column references in table space (`occ = 0`), pinned at the
    /// current snapshot. Exposed so external analyzers (`mv-verify`,
    /// `mv-lint`) can reason from the same constraint knowledge the
    /// matcher uses.
    pub fn check_constraints(&self) -> ChecksGuard {
        ChecksGuard {
            snap: self.snapshot(),
        }
    }

    /// Snapshot of the instrumentation counters.
    pub fn stats(&self) -> MatchStats {
        self.stats.snapshot()
    }

    /// Reset the instrumentation counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Register a materialized view: validates it, computes its summary
    /// and filter keys, inserts it into the appropriate filter tree, and
    /// publishes the next snapshot. Runs concurrently with matching.
    pub fn add_view(&self, def: ViewDef) -> Result<ViewId, String> {
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        let id = self.register_into(&mut next, def)?;
        self.shared.store(Arc::new(next));
        self.stats.record_registrations(1);
        Ok(id)
    }

    /// Register a batch of views with one snapshot clone and one
    /// publication — all-or-nothing: if any definition is rejected,
    /// nothing is published and the catalog is unchanged. Building a
    /// 100k-view catalog this way costs one copy-on-write pass instead of
    /// one per view.
    pub fn add_views(&self, defs: Vec<ViewDef>) -> Result<Vec<ViewId>, String> {
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        let n = defs.len();
        let mut ids = Vec::with_capacity(n);
        for def in defs {
            ids.push(self.register_into(&mut next, def)?);
        }
        self.shared.store(Arc::new(next));
        self.stats.record_registrations(n);
        Ok(ids)
    }

    /// Validate, prepare and file one view into a snapshot under
    /// construction. Shared by `add_view` and `add_views`; the caller
    /// holds the writer lock and publishes (or discards) `next`.
    fn register_into(&self, next: &mut CatalogSnapshot, def: ViewDef) -> Result<ViewId, String> {
        def.expr.validate(&self.catalog)?;
        let vsum = ExprSummary::analyze(&def.expr);
        let interner = Arc::make_mut(&mut next.interner);
        let core = interner.core(&self.catalog, &self.config, &def.expr.tables, &vsum.ec);
        let keys = Self::view_keys(
            &self.catalog,
            &self.config,
            &mut |s| interner.intern(s),
            &def.expr,
            &vsum,
            &core.fk_graph,
        );
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

    /// Is an occurrence "anchored" for the hub refinement of section
    /// 4.2.2: does it carry a range or residual predicate on a column that
    /// participates in no non-trivial equivalence class?
    fn is_anchored(vsum: &ExprSummary, occ: OccId) -> bool {
        vsum.ranges
            .keys()
            .any(|r| r.occ == occ && vsum.ec.is_trivial(*r))
            || vsum
                .residuals
                .iter()
                .flat_map(|t| t.cols.iter())
                .any(|c| c.occ == occ && vsum.ec.is_trivial(*c))
    }

    /// Compute the 8 per-level filter keys for a view (the first 6 are
    /// used for SPJ views). An associated function over explicit fields —
    /// not a method — so the write-path callers can borrow the interner
    /// mutably while the view registry stays immutably borrowed.
    ///
    /// Template texts go through the `token` closure: the write path
    /// passes [`Interner::intern`] (minting), while the audit path passes
    /// the read-only [`Interner::lookup`] — for a registered view the two
    /// agree, because every one of its texts was interned at `add_view`
    /// time. That agreement is exactly what lets `mv-audit` re-derive a
    /// view's keys without mutating the engine.
    fn view_keys(
        catalog: &Catalog,
        config: &MatchConfig,
        token: &mut dyn FnMut(&str) -> u64,
        expr: &SpjgExpr,
        vsum: &ExprSummary,
        fk_graph: &FkGraph,
    ) -> Vec<Vec<u64>> {
        // Level 1: hub condition key, over the FK join graph of the view's
        // join core.
        let refined = config.refined_hubs;
        let hub = compute_hub(fk_graph, &|o| refined && Self::is_anchored(vsum, o));
        let k_hub: Vec<u64> = hub.into_iter().map(table_token).collect();

        // Level 2: source tables.
        let k_tables: Vec<u64> = expr.tables.iter().copied().map(table_token).collect();

        // Level 3: textual output expressions (complex scalar outputs plus
        // SUM argument templates).
        let mut k_exprs: Vec<u64> = Vec::new();
        for ne in expr.scalar_outputs() {
            if ne.expr.as_column().is_none() && !ne.expr.is_constant() {
                k_exprs.push(token(&Template::of_scalar(&ne.expr).text));
            }
        }
        for agg in expr.aggregate_outputs() {
            if let AggFunc::Sum(e) = &agg.func {
                k_exprs.push(token(&Template::of_scalar(e).text));
            }
        }

        // Level 4: extended output column list — every column equivalent
        // to a simple-column output (section 4.2.3).
        let mut k_outcols: Vec<u64> = Vec::new();
        for ne in expr.scalar_outputs() {
            if let Some(c) = ne.expr.as_column() {
                for m in vsum.ec.class_of(c) {
                    k_outcols.push(base_col_token(expr, m));
                }
            }
        }
        // With the backjoin extension, every column of a table whose
        // non-null unique key the view outputs is reachable too — the
        // filter must not prune views the matcher could still use.
        if config.allow_backjoins {
            k_outcols.extend(Self::backjoin_reachable_tokens(catalog, expr, vsum));
        }

        // Level 5: residual predicate texts.
        let k_residuals: Vec<u64> = vsum.residuals.iter().map(|t| token(&t.text)).collect();

        // Level 6: reduced range constraint list — constrained columns in
        // trivial equivalence classes (section 4.2.5).
        let k_ranges: Vec<u64> = vsum
            .ranges
            .keys()
            .filter(|r| vsum.ec.is_trivial(**r))
            .map(|r| base_col_token(expr, *r))
            .collect();

        // Level 7 (aggregation views): textual grouping expressions.
        let mut k_gexprs: Vec<u64> = Vec::new();
        // Level 8: extended grouping column list.
        let mut k_gcols: Vec<u64> = Vec::new();
        if expr.is_aggregate() {
            for ne in expr.scalar_outputs() {
                if let Some(c) = ne.expr.as_column() {
                    for m in vsum.ec.class_of(c) {
                        k_gcols.push(base_col_token(expr, m));
                    }
                } else if !ne.expr.is_constant() {
                    k_gexprs.push(token(&Template::of_scalar(&ne.expr).text));
                }
            }
            if config.allow_backjoins {
                k_gcols.extend(Self::backjoin_reachable_tokens(catalog, expr, vsum));
            }
        }

        vec![
            k_hub,
            k_tables,
            k_exprs,
            k_outcols,
            k_residuals,
            k_ranges,
            k_gexprs,
            k_gcols,
        ]
    }

    /// Base-qualified column tokens reachable through backjoins: for each
    /// occurrence whose base table has a non-null unique key fully covered
    /// by the view's simple outputs (through the view's equivalence
    /// classes), every column of that table.
    fn backjoin_reachable_tokens(
        catalog: &Catalog,
        expr: &SpjgExpr,
        vsum: &ExprSummary,
    ) -> Vec<u64> {
        let mut simple_outputs: HashMap<ColRef, ()> = HashMap::new();
        for ne in expr.scalar_outputs() {
            if let Some(c) = ne.expr.as_column() {
                simple_outputs.insert(c, ());
            }
        }
        let covered = |c: ColRef| {
            simple_outputs.contains_key(&c)
                || vsum
                    .ec
                    .class_of(c)
                    .into_iter()
                    .any(|m| simple_outputs.contains_key(&m))
        };
        let mut out = Vec::new();
        for (occ, table) in expr.occurrences() {
            let def = catalog.table(table);
            let joinable = def.keys.iter().any(|key| {
                key.columns
                    .iter()
                    .all(|&c| def.column(c).not_null && covered(ColRef { occ, col: c }))
            });
            if joinable {
                for c in 0..def.columns.len() as u32 {
                    out.push(col_token(table, ColumnId(c)));
                }
            }
        }
        out
    }

    /// [`MatchingEngine::query_searches`] against a pinned snapshot:
    /// render and look up every query-side filter token exactly once and
    /// assemble both trees' search conditions from that one pass, in the
    /// normalized form the trees search with. Lookups go through the
    /// read-only [`Interner::lookup`] — the query path mints no tokens and
    /// performs no interner writes.
    fn query_searches_in(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        qsum: &ExprSummary,
    ) -> (Vec<LevelSearch>, Vec<LevelSearch>) {
        let source: Vec<u64> = query.tables.iter().copied().map(table_token).collect();

        // Textual output expressions. With the paper-faithful strict
        // filter these must all appear in the view; recomputation from
        // plain columns is ignored (section 4.2.7 calls this
        // "conservative"). Against aggregation views every SUM argument
        // must match a view SUM output; against SPJ views a simple column
        // argument is recomputable and is covered by the output-column
        // condition instead — so simple SUM arguments are kept apart.
        let mut scalar_exprs: Vec<u64> = Vec::new();
        let mut sum_exprs_complex: Vec<u64> = Vec::new();
        let mut sum_exprs_simple: Vec<u64> = Vec::new();
        if self.config.strict_expression_filter {
            for ne in query.scalar_outputs() {
                if ne.expr.as_column().is_none() && !ne.expr.is_constant() {
                    scalar_exprs.push(snap.interner.lookup(&Template::of_scalar(&ne.expr).text));
                }
            }
            for agg in query.aggregate_outputs() {
                if let AggFunc::Sum(e) = &agg.func {
                    let token = snap.interner.lookup(&Template::of_scalar(e).text);
                    if e.as_column().is_none() && !e.is_constant() {
                        sum_exprs_complex.push(token);
                    } else {
                        sum_exprs_simple.push(token);
                    }
                }
            }
        }

        // Output-column hitting classes.
        let class_of = |c: ColRef| {
            let class = qsum.ec.class_of(c);
            normalized(class.into_iter().map(|m| base_col_token(query, m)))
        };
        let out_classes: Vec<Vec<u64>> = query
            .scalar_outputs()
            .iter()
            .filter_map(|ne| ne.expr.as_column())
            .map(class_of)
            .collect();
        let sum_classes: Vec<Vec<u64>> = query
            .aggregate_outputs()
            .iter()
            .filter_map(|agg| match &agg.func {
                AggFunc::Sum(e) => e.as_column(),
                _ => None,
            })
            .map(class_of)
            .collect();

        // Residual texts of the query.
        let residuals: Vec<u64> = qsum
            .residuals
            .iter()
            .map(|t| snap.interner.lookup(&t.text))
            .collect();

        // Extended range constraint list — every column of every
        // constrained equivalence class.
        let mut range_cols: Vec<u64> = Vec::new();
        for root in qsum.ranges.keys() {
            for m in qsum.ec.class_of(*root) {
                range_cols.push(base_col_token(query, m));
            }
        }

        // Each set is sorted and deduplicated here, once — the form
        // `FilterTree::search_into` borrows.
        let source = normalized(source);
        let residuals = normalized(residuals);
        let range_cols = normalized(range_cols);
        let spj_exprs = normalized(scalar_exprs.iter().chain(&sum_exprs_complex).copied());
        let agg = if query.is_aggregate() {
            vec![
                LevelSearch::Subset(source.clone()),
                LevelSearch::Superset(source.clone()),
                LevelSearch::Superset(normalized(
                    spj_exprs.iter().copied().chain(sum_exprs_simple),
                )),
                LevelSearch::Hitting(out_classes.clone()),
                LevelSearch::Subset(residuals.clone()),
                LevelSearch::Subset(range_cols.clone()),
                LevelSearch::Superset(normalized(scalar_exprs)),
                LevelSearch::Hitting(out_classes.clone()),
            ]
        } else {
            Vec::new()
        };
        let mut classes = out_classes;
        classes.extend(sum_classes);
        let spj = vec![
            LevelSearch::Subset(source.clone()),
            LevelSearch::Superset(source),
            LevelSearch::Superset(spj_exprs),
            LevelSearch::Hitting(classes),
            LevelSearch::Subset(residuals),
            LevelSearch::Subset(range_cols),
        ];
        (spj, agg)
    }

    /// The candidate views for a query: filter-tree search, or every view
    /// when the filter tree is disabled.
    pub fn candidates(&self, query: &SpjgExpr, qsum: &ExprSummary) -> Vec<ViewId> {
        let mut out = Vec::new();
        self.candidates_into(query, qsum, &mut out);
        out
    }

    /// [`MatchingEngine::candidates`] into a caller-owned buffer (cleared
    /// first), so a driver probing many queries reuses one allocation.
    /// Both trees append into the same buffer, which is then sorted and
    /// deduplicated once.
    pub fn candidates_into(&self, query: &SpjgExpr, qsum: &ExprSummary, out: &mut Vec<ViewId>) {
        self.candidates_into_in(&self.snapshot(), query, qsum, out)
    }

    /// [`MatchingEngine::candidates_into`] against a pinned snapshot.
    fn candidates_into_in(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        qsum: &ExprSummary,
        out: &mut Vec<ViewId>,
    ) {
        out.clear();
        if !self.config.use_filter_tree {
            out.extend(
                snap.views
                    .iter()
                    .map(|(id, _)| id)
                    .filter(|id| !snap.removed.contains(id)),
            );
            return;
        }
        let (spj, agg) = self.query_searches_in(snap, query, qsum);
        snap.spj_tree.search_into(&spj, out);
        if query.is_aggregate() && !snap.agg_tree.is_empty() {
            snap.agg_tree.search_into(&agg, out);
        }
        // Removed views are already gone from the trees; the retain is a
        // cheap second line of defense for the matching invariant.
        out.retain(|id| !snap.removed.contains(id));
        out.sort_unstable();
        // Each view lives in exactly one partition of exactly one tree, so
        // the merged result must already be duplicate-free.
        debug_assert!(
            out.windows(2).all(|w| w[0] != w[1]),
            "spj and agg filter trees must hold disjoint view sets"
        );
        out.dedup();
    }

    /// Run the full tests over `ids` (live views of `snap`, ascending)
    /// and apply the freshness gate to each: the views within the
    /// configured staleness bound of the current data epochs keep their
    /// substitutes, stamped with the lag so callers see the guarantee.
    /// With `verdict`, every id that passes the full tests is also pushed
    /// there, fresh or not — the structural verdict a cache entry keeps;
    /// without it, a view the gate refuses skips the tests. The count is
    /// the join-core states the loop built — candidates over one core
    /// share everything up to the equijoin test through one
    /// [`PreparedQuery`].
    fn match_candidates(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        qsum: &ExprSummary,
        ids: &[ViewId],
        mut verdict: Option<&mut Vec<ViewId>>,
    ) -> (Vec<(ViewId, Substitute)>, usize) {
        let pq = PreparedQuery::new(query, qsum);
        let match_view = |pq: &PreparedQuery, id: ViewId| {
            let (view, pv) = (snap.views.get(id), snap.descriptors.prepared(id));
            match_view_prepared(&self.catalog, &self.config, pq, id, view, pv)
        };
        let mut out = Vec::new();
        for &id in ids {
            let lag = snap.view_lag(id);
            let admitted = self.config.freshness.admits(lag);
            if !admitted && verdict.is_none() {
                continue;
            }
            let Some(mut sub) = match_view(&pq, id) else {
                continue;
            };
            // Sharing must be invisible: a state of its own gives this
            // candidate the same substitute.
            #[cfg(debug_assertions)]
            assert_eq!(
                Some(&sub),
                match_view(&PreparedQuery::new(query, qsum), id).as_ref(),
                "{id} matched through shared core state must be byte-identical \
                 to a match with fresh state"
            );
            if let Some(verdict) = verdict.as_deref_mut() {
                verdict.push(id);
            }
            if admitted {
                sub.freshness = Freshness::from_lag(lag);
                out.push((id, sub));
            }
        }
        (out, pq.core_states())
    }

    /// Filter, match and debug-verify — the uncached matching pipeline,
    /// recording the structural verdict into `verdict` when given (see
    /// [`MatchingEngine::match_candidates`]). Returns the substitutes, the
    /// candidate and core-state counts, and the filter time.
    fn compute_substitutes(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        verdict: Option<&mut Vec<ViewId>>,
    ) -> (Vec<(ViewId, Substitute)>, usize, usize, Duration) {
        let qsum = self.query_summary_in(snap, query);

        let filter_started = self.config.timing.then(Instant::now);
        let mut candidates = Vec::new();
        self.candidates_into_in(snap, query, &qsum, &mut candidates);
        let filter_time = elapsed(filter_started);

        let (out, core_states) = self.match_candidates(snap, query, &qsum, &candidates, verdict);
        #[cfg(debug_assertions)]
        {
            self.debug_verify(snap, query, &out);
            self.debug_prove(snap, query, &out);
            self.debug_assert_filter_complete(snap, query, &qsum, &candidates);
        }
        (out, candidates.len(), core_states, filter_time)
    }

    /// The view-matching rule: find every view from which `query` can be
    /// computed and build the substitutes. Updates the instrumentation
    /// counters. Callable concurrently from any number of threads sharing
    /// the engine, including while other threads register or remove
    /// views: the whole match runs against one pinned snapshot.
    ///
    /// With the substitute cache enabled (see
    /// [`MatchConfig::substitute_cache_capacity`]), a repeated query shape
    /// skips the filter tree and every failing candidate: the full tests
    /// re-run over the views the cached verdict kept, and the freshness
    /// gate over the pinned snapshot, so the result is byte-identical to
    /// a fresh computation, which debug builds prove with a differential
    /// assertion on every hit. Verdicts are stamped with the catalog
    /// epochs of the query's tables, so a registration over disjoint
    /// tables leaves them valid and a base-table write touches none.
    /// Hits replay the original candidate count into the stats so counter
    /// totals stay path-independent.
    pub fn find_substitutes(&self, query: &SpjgExpr) -> Vec<(ViewId, Substitute)> {
        self.find_substitutes_in(&self.snapshot(), query)
    }

    /// [`MatchingEngine::find_substitutes`] against a pinned snapshot:
    /// probe the substitute cache if there is one, otherwise (or on a
    /// miss) compute, record the stats and fill the cache.
    fn find_substitutes_in(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
    ) -> Vec<(ViewId, Substitute)> {
        let started = self.config.timing.then(Instant::now);
        // The cache key and the stamp of the pinned snapshot; `None` with
        // the cache off, which then costs no fingerprint.
        let key = self
            .cache
            .is_enabled()
            .then(|| (fingerprint(query), snap.table_stamp(query)));
        let probe = key.as_ref().map_or(CacheLookup::Disabled, |(fp, stamp)| {
            self.cache.lookup(fp.hash, |g| **g == *fp.render, stamp)
        });
        match probe {
            CacheLookup::Hit((candidates, verdict)) => {
                let qsum = self.query_summary_in(snap, query);
                let (results, core_states) =
                    self.match_candidates(snap, query, &qsum, &verdict, None);
                #[cfg(debug_assertions)]
                {
                    self.debug_verify(snap, query, &results);
                    let (fresh, ..) = self.compute_substitutes(snap, query, None);
                    assert_eq!(
                        results, fresh,
                        "rebuilt substitutes must be byte-identical to a fresh \
                         computation for the probing query"
                    );
                }
                self.stats.record_cache_hit();
                self.stats.record_core_states(core_states);
                self.stats.record(
                    candidates,
                    snap.live_view_count(),
                    results.len(),
                    Duration::ZERO,
                    elapsed(started),
                );
                return results;
            }
            CacheLookup::Stale => self.stats.record_cache_invalidation(),
            CacheLookup::Miss | CacheLookup::Disabled => {}
        }
        let mut verdict = Vec::new();
        let (out, n_candidates, core_states, filter_time) =
            self.compute_substitutes(snap, query, key.is_some().then_some(&mut verdict));
        self.stats.record_core_states(core_states);
        #[cfg(mv_model)]
        let skip_miss_stat = crate::mutation::active(crate::mutation::SKIP_CACHE_MISS_STAT);
        #[cfg(not(mv_model))]
        let skip_miss_stat = false;
        if key.is_some() && !skip_miss_stat {
            self.stats.record_cache_miss();
        }
        self.stats.record(
            n_candidates,
            snap.live_view_count(),
            out.len(),
            filter_time,
            elapsed(started),
        );
        if let Some((fp, stamp)) = key {
            // The entry MUST carry the stamp of the pinned snapshot the
            // verdict was computed from. Re-deriving it from the currently
            // published snapshot (the STAMP_AFTER_PUBLISH mutation) stamps
            // a pre-registration verdict with post-registration epochs,
            // making a stale entry look fresh forever.
            #[cfg(mv_model)]
            let stamp = if crate::mutation::active(crate::mutation::STAMP_AFTER_PUBLISH) {
                self.snapshot().table_stamp(query)
            } else {
                stamp
            };
            // A hit skips the filter and every failing candidate: the
            // candidate count is what the entry saves.
            let cost = n_candidates as u64 + 1;
            // Stored shrunk to fit: the render is built in a doubling
            // buffer.
            let evicted = self.cache.insert(
                fp.hash,
                fp.render.into_boxed_str(),
                stamp,
                (n_candidates, verdict),
                cost,
            );
            if evicted {
                self.stats.record_cache_eviction();
            }
        }
        out
    }

    /// Drop every cached `find_substitutes` result (capacity unchanged).
    pub fn clear_substitute_cache(&self) {
        self.cache.clear();
    }

    /// Number of live entries in the substitute cache.
    pub fn substitute_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Probe the plan cache for the plan of `query` under the optimizer
    /// configuration `tag` identifies. `pin` is the snapshot the caller
    /// pinned before searching: a hit is valid under its epochs, and a
    /// miss carries its stamp in the [`PlanTicket`] for the insert. With
    /// the cache off (`substitute_cache_capacity / 16 == 0`) nothing is
    /// hashed and nothing counted. A cached value of another type than
    /// `P` is a miss.
    ///
    /// Sound because a query's plan depends on the catalog only through
    /// `find_substitutes` on subsets of its tables. Every catalog change
    /// that can change one of those bumps the epoch of a table in the
    /// subset, so of a table in the query's stamp. Freshness reaches a
    /// plan only through which views the gate admits; under `StaleOk` it
    /// admits every view, and under any other policy the stamp also
    /// carries the freshness counter every write round and restamp bumps
    /// (DESIGN.md §11.4).
    pub fn probe_plan<P: Clone + 'static>(
        &self,
        pin: &ViewsGuard,
        tag: u64,
        query: &SpjgExpr,
    ) -> PlanProbe<P> {
        if !self.plans.is_enabled() {
            return PlanProbe::Miss(PlanTicket { key: None });
        }
        let mut hasher = DefaultHasher::new();
        (tag, query).hash(&mut hasher);
        let hash = hasher.finish();
        let stamp = self.plan_stamp(&pin.snap, query);
        // Not `block == query`: that serves `a * 2.0` the plan for `a * 2`.
        let is_key = |(t, block): &(u64, SpjgExpr)| *t == tag && block.identical(query);
        match self.plans.lookup(hash, is_key, &stamp) {
            CacheLookup::Hit(plan) => {
                if let Some(plan) = plan.downcast_ref::<P>() {
                    self.stats.record_plan_cache_hit();
                    return PlanProbe::Hit(plan.clone());
                }
            }
            CacheLookup::Stale => self.stats.record_plan_cache_invalidation(),
            CacheLookup::Miss | CacheLookup::Disabled => {}
        }
        self.stats.record_plan_cache_miss();
        PlanProbe::Miss(PlanTicket {
            key: Some((hash, tag, stamp)),
        })
    }

    /// Store the plan a [`MatchingEngine::probe_plan`] miss went on to
    /// search for, under the ticket's stamp.
    pub fn insert_plan<P: Send + Sync + 'static>(
        &self,
        ticket: PlanTicket,
        query: &SpjgExpr,
        plan: P,
    ) {
        let Some((hash, tag, stamp)) = ticket.key else {
            return;
        };
        // The stamp MUST be the one read before the search. Re-reading it
        // here (the PLAN_STAMP_AT_INSERT mutation) stamps a plan searched
        // before a registration with the epochs after it.
        #[cfg(mv_model)]
        let stamp = if crate::mutation::active(crate::mutation::PLAN_STAMP_AT_INSERT) {
            self.plan_stamp(&self.snapshot(), query)
        } else {
            stamp
        };
        self.plans
            .insert(hash, (tag, query.clone()), stamp, Arc::new(plan), 1);
    }

    /// The stamp a plan for `query` searched under `snap` carries: the
    /// query's catalog stamp, plus the freshness counter when the policy
    /// lets freshness change a plan.
    fn plan_stamp(&self, snap: &CatalogSnapshot, query: &SpjgExpr) -> Vec<u64> {
        let mut stamp = snap.table_stamp(query);
        if self.config.freshness != FreshnessPolicy::StaleOk {
            stamp.push(snap.freshness_epoch);
        }
        stamp
    }

    /// Number of live entries in the plan cache.
    pub fn plan_cache_len(&self) -> usize {
        self.plans.len()
    }

    /// [`MatchingEngine::find_substitutes`] against `pin`, past the
    /// substitute cache and the counters: the search the optimizer re-runs
    /// on every plan-cache hit of a debug build, to assert the hit equals
    /// it. Never call outside that check.
    #[cfg(debug_assertions)]
    #[doc(hidden)]
    pub fn fresh_substitutes(
        &self,
        pin: &ViewsGuard,
        query: &SpjgExpr,
    ) -> Vec<(ViewId, Substitute)> {
        self.compute_substitutes(&pin.snap, query, None).0
    }

    /// Match the query against one specific view (bypassing the filter).
    /// Returns `None` for removed and out-of-range view ids rather than
    /// panicking — an id is data here, not a proven-valid handle.
    pub fn match_one(&self, query: &SpjgExpr, view: ViewId) -> Option<Substitute> {
        let snap = self.snapshot();
        let qsum = self.query_summary_in(&snap, query);
        self.match_one_in(&snap, query, &qsum, view)
    }

    /// [`MatchingEngine::match_one`] with a caller-supplied query summary,
    /// so a driver probing many views against one query (the `mv-audit`
    /// differential pass) analyzes the query once instead of per probe.
    pub fn match_one_prepared(
        &self,
        query: &SpjgExpr,
        qsum: &ExprSummary,
        view: ViewId,
    ) -> Option<Substitute> {
        self.match_one_in(&self.snapshot(), query, qsum, view)
    }

    fn match_one_in(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        qsum: &ExprSummary,
        view: ViewId,
    ) -> Option<Substitute> {
        if snap.removed.contains(&view) || (view.0 as usize) >= snap.views.len() {
            return None;
        }
        let (result, _) = self.match_candidates(snap, query, qsum, &[view], None);
        #[cfg(debug_assertions)]
        self.debug_verify(snap, query, &result);
        result.into_iter().next().map(|(_, sub)| sub)
    }

    // ------------------------------------------------------------------
    // Audit API: read-only views into the filter index for `mv-audit`.
    // ------------------------------------------------------------------

    /// Has this view been dropped with [`MatchingEngine::remove_view`]?
    pub fn is_removed(&self, id: ViewId) -> bool {
        self.snapshot().removed.contains(&id)
    }

    /// Re-derive the per-level filter keys of a registered live view,
    /// read-only: template texts resolve through [`Interner::lookup`], so
    /// no tokens are minted and the engine is not mutated. For a live view
    /// this reproduces exactly the keys `add_view` computed (every text
    /// was interned then). Returns `None` for removed or out-of-range ids.
    pub fn view_filter_keys(&self, id: ViewId) -> Option<Vec<Vec<u64>>> {
        self.view_filter_keys_in(&self.snapshot(), id)
    }

    fn view_filter_keys_in(&self, snap: &CatalogSnapshot, id: ViewId) -> Option<Vec<Vec<u64>>> {
        if snap.removed.contains(&id) || (id.0 as usize) >= snap.views.len() {
            return None;
        }
        // From the definition alone — the stored descriptor and its core
        // are among the things this derivation audits.
        let expr = &snap.views.get(id).expr;
        let vsum = ExprSummary::analyze(expr);
        let core = JoinCore::new(&self.catalog, &self.config, &expr.tables, &vsum.ec);
        Some(Self::view_keys(
            &self.catalog,
            &self.config,
            &mut |s| snap.interner.lookup(s),
            expr,
            &vsum,
            &core.fk_graph,
        ))
    }

    /// Every `(view, stored per-level keys)` entry across both filter
    /// trees, exactly as the index holds them (normalized). SPJ entries
    /// carry [`SPJ_LEVELS`] keys, aggregation entries [`AGG_LEVELS`].
    pub fn filter_entries(&self) -> Vec<(ViewId, Vec<Vec<u64>>)> {
        let snap = self.snapshot();
        let mut out = snap.spj_tree.entries();
        out.extend(snap.agg_tree.entries());
        out
    }

    /// The per-level search conditions a query poses against the SPJ and
    /// aggregation trees, in that order; a non-aggregate query poses none
    /// against the latter, which is never searched for one (section 3.3),
    /// so its list is empty. Read-only (unknown template texts resolve to
    /// the reserved [`UNKNOWN_TOKEN`]).
    pub fn query_searches(
        &self,
        query: &SpjgExpr,
        qsum: &ExprSummary,
    ) -> (Vec<LevelSearch>, Vec<LevelSearch>) {
        self.query_searches_in(&self.snapshot(), query, qsum)
    }

    /// Number of template-text tokens ever minted. Tokens are issued
    /// sequentially from 0, so any stored text token `>= known_token_count`
    /// (other than unreachable [`UNKNOWN_TOKEN`] query tokens) denotes a
    /// corrupted index entry.
    pub fn known_token_count(&self) -> u64 {
        self.snapshot().interner.map.len() as u64
    }

    /// Corruption hook for the `mv-audit` test suite: silently drop `id`
    /// from its filter tree while the engine still believes it is live.
    /// Simulates an index that lost an entry. Never call outside tests.
    /// Bumps every table epoch: a corrupted index invalidates all cached
    /// results, by design.
    #[doc(hidden)]
    pub fn evict_view_for_audit(&self, id: ViewId) -> bool {
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        if !self.unfile(&mut next, id) {
            return false;
        }
        let all_tables: Vec<TableId> = (0..next.table_epochs.len())
            .map(|i| TableId(i as u32))
            .collect();
        next.bump_tables(all_tables);
        self.shared.store(Arc::new(next));
        true
    }

    /// Corruption hook for the `mv-audit` test suite: re-file `id` under
    /// caller-chosen per-level keys (arity must match the view's tree).
    /// Simulates an index whose stored keys drifted from the definition.
    /// Never call outside tests.
    #[doc(hidden)]
    pub fn refile_view_for_audit(&self, id: ViewId, keys: &[Vec<u64>]) -> bool {
        if !self.evict_view_for_audit(id) {
            return false;
        }
        let _writer = self.writer_guard();
        let mut next = (*self.snapshot()).clone();
        if next.views.get(id).expr.is_aggregate() {
            Arc::make_mut(&mut next.agg_tree).insert(keys, id);
        } else {
            Arc::make_mut(&mut next.spj_tree).insert(keys, id);
        }
        next.epoch += 1;
        self.shared.store(Arc::new(next));
        true
    }

    /// Bytes the descriptor store of the current snapshot reserves for
    /// its pointer tables (not the descriptors behind them). The bench
    /// harness divides this by the live view count for its
    /// `bytes_per_view_arena` column.
    pub fn arena_bytes(&self) -> usize {
        self.snapshot().descriptors.arena_bytes()
    }

    /// Debug-mode completeness oracle, the dual of
    /// [`MatchingEngine::debug_verify`]: after every filtered
    /// `find_substitutes`, exhaustively re-match each live view the filter
    /// tree pruned and panic if one of them actually matches — unless the
    /// only rejecting levels are the documented strict-expression-filter
    /// conservatism ([`strict_filter_exempt_levels`], section 4.2.7).
    /// Every test exercising the matching path in a debug build therefore
    /// doubles as a proof obligation that filter-tree candidates ⊇
    /// exhaustive matches. Capped at a modest catalog size so large debug
    /// workload tests stay fast; compiled out of release builds.
    #[cfg(debug_assertions)]
    fn debug_assert_filter_complete(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        qsum: &ExprSummary,
        candidates: &[ViewId],
    ) {
        const DEBUG_COMPLETENESS_CAP: usize = 512;
        if !self.config.use_filter_tree || snap.live_view_count() > DEBUG_COMPLETENESS_CAP {
            return;
        }
        let (spj, agg) = self.query_searches_in(snap, query, qsum);
        let pq = PreparedQuery::new(query, qsum);
        for (id, view) in snap.views.iter() {
            // `candidates` is sorted (see `candidates_into`).
            if snap.removed.contains(&id) || candidates.binary_search(&id).is_ok() {
                continue;
            }
            let pv = snap.descriptors.prepared(id);
            if match_view_prepared(&self.catalog, &self.config, &pq, id, view, pv).is_none() {
                continue;
            }
            let is_agg = view.expr.is_aggregate();
            assert!(
                !is_agg || query.is_aggregate(),
                "matcher accepted aggregation view `{}` for a non-aggregate \
                 query — invalid per section 3.3",
                view.name
            );
            let keys = self
                .view_filter_keys_in(snap, id)
                .expect("live view has derivable keys");
            let searches = if is_agg { &agg } else { &spj };
            let rejecting: Vec<usize> = searches
                .iter()
                .enumerate()
                .filter(|(lvl, s)| !s.accepts(&keys[*lvl]))
                .map(|(lvl, _)| lvl)
                .collect();
            let exempt = strict_filter_exempt_levels(is_agg);
            if self.config.strict_expression_filter
                && !rejecting.is_empty()
                && rejecting.iter().all(|l| exempt.contains(l))
            {
                continue;
            }
            let levels: Vec<&str> = rejecting.iter().map(|&l| LEVEL_NAMES[l]).collect();
            panic!(
                "filter tree dropped matching view `{}` (rejecting levels {levels:?}; \
                 an empty list means the view is missing from its tree)",
                view.name
            );
        }
    }

    /// Debug-mode oracle: run the independent `mv-verify` analyzer over
    /// every substitute the matcher just produced and panic on any
    /// ERROR-severity diagnostic. Because the analyzer shares no logic
    /// with the matcher, every test exercising the matching path doubles
    /// as a soundness test for both sides. Compiled out of release builds.
    #[cfg(debug_assertions)]
    fn debug_verify(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        results: &[(ViewId, Substitute)],
    ) {
        let ctx = mv_verify::VerifyContext::new(&self.catalog, &snap.checks);
        for (id, sub) in results {
            let view = snap.views.get(*id);
            let diags =
                mv_verify::verify_substitute(&ctx, query, &view.expr, sub, &view.name, "query");
            let errors: Vec<String> = diags
                .iter()
                .filter(|d| d.severity == mv_verify::Severity::Error)
                .map(|d| d.to_json())
                .collect();
            assert!(
                errors.is_empty(),
                "mv-verify rejected a matcher-produced substitute for view `{}`:\n{}",
                view.name,
                errors.join("\n"),
            );
        }
    }

    /// Debug-mode semantic oracle: run the `mv-prove` bounded model
    /// checker (DESIGN.md §15) over every substitute the matcher just
    /// produced and panic on a refutation, rendering the witness
    /// database. Off unless [`MatchConfig::prove_budget`] is nonzero —
    /// proving enumerates databases and executes both plans, so it is
    /// opt-in even for debug builds. Compiled out of release builds.
    #[cfg(debug_assertions)]
    fn debug_prove(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        results: &[(ViewId, Substitute)],
    ) {
        // Cap mirrors DEBUG_COMPLETENESS_CAP: proving is for functional
        // tests, not the scale benchmarks.
        const DEBUG_PROVE_CAP: usize = 64;
        if self.config.prove_budget == 0 || snap.views.len() > DEBUG_PROVE_CAP {
            return;
        }
        let ctx = mv_prove::ProveCtx::new(&self.catalog, &snap.checks);
        let cfg = mv_prove::ProveConfig {
            max_databases: self.config.prove_budget as u64,
            ..mv_prove::ProveConfig::default()
        };
        for (id, sub) in results {
            let view = snap.views.get(*id);
            let outcome = mv_prove::prove(&ctx, query, &view.expr, sub, &cfg);
            if outcome.is_refuted() {
                let tables = mv_prove::pair_tables(query, &view.expr, sub);
                let diags: Vec<String> =
                    mv_prove::prove_diagnostics(&outcome, &view.name, "query", &tables, &cfg)
                        .iter()
                        .map(|d| d.to_json())
                        .collect();
                panic!(
                    "mv-prove refuted a matcher-produced substitute for view `{}`:\n{}",
                    view.name,
                    diags.join("\n"),
                );
            }
        }
    }
}

/// A pinned, read-only handle on the registered views: derefs to
/// [`ViewSet`] and keeps the underlying [`CatalogSnapshot`] alive, so the
/// registry it exposes stays coherent (and valid) however many writers
/// publish while the guard is held. Returned by
/// [`MatchingEngine::views`].
#[derive(Debug, Clone)]
pub struct ViewsGuard {
    snap: Arc<CatalogSnapshot>,
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

    /// How many distinct [`JoinCore`]s the interner holds.
    pub fn join_core_count(&self) -> usize {
        self.snap.interner.cores.len()
    }
}

/// A pinned, read-only handle on the declared check constraints: derefs
/// to the per-table conjunct map. Returned by
/// [`MatchingEngine::check_constraints`].
#[derive(Debug, Clone)]
pub struct ChecksGuard {
    snap: Arc<CatalogSnapshot>,
}

impl std::ops::Deref for ChecksGuard {
    type Target = HashMap<TableId, Vec<Conjunct>>;
    fn deref(&self) -> &HashMap<TableId, Vec<Conjunct>> {
        &self.snap.checks
    }
}

/// `Instant::elapsed` for a gated timer: `Duration::ZERO` when timing is
/// off ([`MatchConfig::timing`] = false).
fn elapsed(started: Option<Instant>) -> Duration {
    started.map_or(Duration::ZERO, |t| t.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_catalog::tpch::tpch_catalog;
    use mv_expr::{BinOp, BoolExpr, CmpOp, ScalarExpr as S};
    use mv_plan::{NamedAgg, NamedExpr};

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    fn part_view(lo: i64, hi: i64, name: &str) -> (String, SpjgExpr) {
        let (_, t) = tpch_catalog();
        let pred = BoolExpr::and(vec![
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(lo)),
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Lt, S::lit(hi)),
        ]);
        (
            name.to_string(),
            SpjgExpr::spj(
                vec![t.part],
                pred,
                vec![
                    NamedExpr::new(S::col(cr(0, 0)), "p_partkey"),
                    NamedExpr::new(S::col(cr(0, 5)), "p_size"),
                ],
            ),
        )
    }

    /// Is the view filed in its tree under exactly the keys a fresh
    /// derivation produces? `false` means the index lost the view or
    /// holds it under stale keys — either way a search may never reach it.
    fn view_in_tree(engine: &MatchingEngine, id: ViewId) -> bool {
        let snap = engine.snapshot();
        let Some(keys) = engine.view_filter_keys_in(&snap, id) else {
            return false;
        };
        if snap.views.get(id).expr.is_aggregate() {
            snap.agg_tree.contains(&keys, id)
        } else {
            snap.spj_tree.contains(&keys[..SPJ_LEVELS], id)
        }
    }

    fn engine_with_views(config: MatchConfig) -> MatchingEngine {
        let (cat, t) = tpch_catalog();
        let engine = MatchingEngine::new(cat, config);
        for (name, v) in [
            part_view(0, 1000, "parts_low"),
            part_view(500, 2000, "parts_mid"),
            part_view(5000, 9000, "parts_high"),
        ] {
            engine.add_view(ViewDef::new(name, v)).unwrap();
        }
        // An unrelated orders aggregate.
        let agg = SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
            vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
        );
        engine
            .add_view(ViewDef::new("orders_by_cust", agg))
            .unwrap();
        engine
    }

    fn part_query(lo: i64, hi: i64) -> SpjgExpr {
        let (_, t) = tpch_catalog();
        let pred = BoolExpr::and(vec![
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(lo)),
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Lt, S::lit(hi)),
        ]);
        SpjgExpr::spj(
            vec![t.part],
            pred,
            vec![NamedExpr::new(S::col(cr(0, 0)), "p_partkey")],
        )
    }

    #[test]
    fn finds_all_containing_views() {
        let engine = engine_with_views(MatchConfig::default());
        // Query range [600, 900) is contained in parts_low and parts_mid.
        let subs = engine.find_substitutes(&part_query(600, 900));
        assert_eq!(subs.len(), 2);
        // Range [400, 900) only fits parts_low.
        let subs = engine.find_substitutes(&part_query(400, 900));
        assert_eq!(subs.len(), 1);
        assert_eq!(engine.views().get(subs[0].0).name, "parts_low");
    }

    #[test]
    fn filter_and_no_filter_agree() {
        let with = engine_with_views(MatchConfig::default());
        let without = engine_with_views(MatchConfig {
            use_filter_tree: false,
            ..MatchConfig::default()
        });
        for (lo, hi) in [(600, 900), (400, 900), (0, 10_000), (5500, 6000)] {
            let q = part_query(lo, hi);
            let mut a: Vec<ViewId> = with
                .find_substitutes(&q)
                .into_iter()
                .map(|(v, _)| v)
                .collect();
            let mut b: Vec<ViewId> = without
                .find_substitutes(&q)
                .into_iter()
                .map(|(v, _)| v)
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "range [{lo},{hi})");
        }
    }

    #[test]
    fn filter_narrows_candidates() {
        let engine = engine_with_views(MatchConfig::default());
        let q = part_query(600, 900);
        let qsum = ExprSummary::analyze(&q);
        let candidates = engine.candidates(&q, &qsum);
        // The orders aggregate must never be a candidate for a part query.
        assert!(candidates.len() <= 3);
        let (_, t) = tpch_catalog();
        for id in candidates {
            assert_eq!(engine.views().get(id).expr.tables, vec![t.part]);
        }
    }

    #[test]
    fn stats_accumulate() {
        let engine = engine_with_views(MatchConfig::default());
        engine.find_substitutes(&part_query(600, 900));
        engine.find_substitutes(&part_query(400, 900));
        let stats = engine.stats();
        assert_eq!(stats.invocations, 2);
        assert_eq!(stats.substitutes, 3);
        assert_eq!(stats.views_available, 8);
        assert!(stats.candidates <= 8);
        engine.reset_stats();
        assert_eq!(engine.stats().invocations, 0);
    }

    #[test]
    fn aggregate_query_sees_both_trees() {
        let engine = engine_with_views(MatchConfig::default());
        let (_, t) = tpch_catalog();
        // Aggregate query over orders: answered by the aggregation view.
        let q = SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
            vec![NamedAgg::new(AggFunc::CountStar, "n")],
        );
        let subs = engine.find_substitutes(&q);
        assert_eq!(subs.len(), 1);
        assert_eq!(engine.views().get(subs[0].0).name, "orders_by_cust");
    }

    #[test]
    fn match_one_bypasses_filter() {
        let engine = engine_with_views(MatchConfig::default());
        let q = part_query(600, 900);
        assert!(engine.match_one(&q, ViewId(0)).is_some());
        assert!(engine.match_one(&q, ViewId(2)).is_none());
    }

    #[test]
    fn removed_views_stop_matching() {
        let engine = engine_with_views(MatchConfig::default());
        let q = part_query(600, 900);
        assert_eq!(engine.find_substitutes(&q).len(), 2);
        // Drop parts_low (ViewId 0).
        assert!(engine.remove_view(ViewId(0)));
        assert!(!engine.remove_view(ViewId(0)), "double remove is a no-op");
        assert_eq!(engine.live_view_count(), 3);
        let subs = engine.find_substitutes(&q);
        assert_eq!(subs.len(), 1);
        assert_eq!(engine.views().get(subs[0].0).name, "parts_mid");
        assert!(engine.match_one(&q, ViewId(0)).is_none());
        // The same holds with the filter tree disabled.
        let engine = engine_with_views(MatchConfig {
            use_filter_tree: false,
            ..MatchConfig::default()
        });
        engine.remove_view(ViewId(0));
        assert_eq!(engine.find_substitutes(&q).len(), 1);
        // Aggregation-tree removal works too.
        let engine = engine_with_views(MatchConfig::default());
        assert!(engine.remove_view(ViewId(3))); // orders_by_cust
        let (_, t) = tpch_catalog();
        let agg = SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
            vec![NamedAgg::new(AggFunc::CountStar, "n")],
        );
        assert!(engine.find_substitutes(&agg).is_empty());
    }

    #[test]
    fn audit_api_reports_index_state() {
        let engine = engine_with_views(MatchConfig::default());
        for id in 0..4 {
            assert!(view_in_tree(&engine, ViewId(id)));
            assert!(!engine.is_removed(ViewId(id)));
        }
        assert!(engine.view_filter_keys(ViewId(99)).is_none());
        assert!(engine
            .match_one(&part_query(600, 900), ViewId(99))
            .is_none());
        let entries = engine.filter_entries();
        assert_eq!(entries.len(), 4);
        // Stored keys equal a fresh read-only derivation, up to the
        // normalization the lattice applies on insert.
        for (id, stored) in &entries {
            let derived = engine.view_filter_keys(*id).unwrap();
            assert!(stored.len() <= derived.len());
            for (s, d) in stored.iter().zip(derived.iter()) {
                let mut d = d.clone();
                d.sort_unstable();
                d.dedup();
                assert_eq!(s, &d);
            }
        }
        // Evicting drops the view from the index but not from the engine.
        assert!(engine.evict_view_for_audit(ViewId(0)));
        assert!(!view_in_tree(&engine, ViewId(0)));
        assert_eq!(engine.filter_entries().len(), 3);
        assert_eq!(engine.live_view_count(), 4);
        // Removed views have no keys and cannot be corrupted.
        let engine = engine_with_views(MatchConfig::default());
        engine.remove_view(ViewId(1));
        assert!(engine.view_filter_keys(ViewId(1)).is_none());
        assert!(!engine.evict_view_for_audit(ViewId(1)));
        assert!(!engine.refile_view_for_audit(ViewId(1), &[]));
    }

    #[test]
    fn refile_moves_the_index_entry() {
        let engine = engine_with_views(MatchConfig::default());
        let mut keys = engine.view_filter_keys(ViewId(0)).unwrap();
        keys.truncate(SPJ_LEVELS);
        keys[4].push(999_999); // bogus residual token
        assert!(engine.refile_view_for_audit(ViewId(0), &keys));
        assert!(
            !view_in_tree(&engine, ViewId(0)),
            "stored keys are stale now"
        );
        assert_eq!(engine.filter_entries().len(), 4);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "filter tree dropped matching view")]
    fn debug_hook_catches_evicted_view() {
        let engine = engine_with_views(MatchConfig::default());
        engine.evict_view_for_audit(ViewId(0));
        engine.find_substitutes(&part_query(600, 900));
    }

    #[test]
    fn rejects_invalid_view() {
        let (cat, t) = tpch_catalog();
        let engine = MatchingEngine::new(cat, MatchConfig::default());
        let bad = SpjgExpr::spj(
            vec![t.part],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(5, 0)), "oops")],
        );
        assert!(engine.add_view(ViewDef::new("bad", bad)).is_err());
        // A table id the catalog does not have, with and without a column
        // of that table referenced.
        for (tables, col) in [
            (vec![TableId(99)], cr(0, 0)),
            (vec![t.part, TableId(99)], cr(0, 0)),
        ] {
            let bad = SpjgExpr::spj(
                tables,
                BoolExpr::Literal(true),
                vec![NamedExpr::new(S::col(col), "c")],
            );
            let err = engine.add_view(ViewDef::new("bad", bad)).unwrap_err();
            assert!(err.contains("99"), "error names the table id: {err}");
        }
        assert_eq!(engine.live_view_count(), 0);
    }

    #[test]
    fn add_views_bulk_is_all_or_nothing() {
        let (cat, t) = tpch_catalog();
        let engine = MatchingEngine::new(cat, MatchConfig::default());
        let (n1, v1) = part_view(0, 100, "a");
        let (n2, v2) = part_view(100, 200, "b");
        let ids = engine
            .add_views(vec![ViewDef::new(n1, v1), ViewDef::new(n2, v2)])
            .unwrap();
        assert_eq!(ids, vec![ViewId(0), ViewId(1)]);
        assert_eq!(engine.live_view_count(), 2);
        assert_eq!(engine.stats().registrations, 2);
        let epoch_before = engine.snapshot_epoch();
        // A batch with an invalid member registers nothing at all.
        let (n3, v3) = part_view(200, 300, "c");
        let bad = SpjgExpr::spj(
            vec![t.part],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(5, 0)), "oops")],
        );
        assert!(engine
            .add_views(vec![ViewDef::new(n3, v3), ViewDef::new("bad", bad)])
            .is_err());
        // The same with the rejected member in the middle of the batch,
        // naming a table the catalog does not have.
        let (n3, v3) = part_view(200, 300, "c");
        let (n4, v4) = part_view(300, 400, "d");
        let bad = SpjgExpr::spj(
            vec![t.part, TableId(99)],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "p_partkey")],
        );
        let batch = vec![
            ViewDef::new(n3, v3),
            ViewDef::new("bad", bad),
            ViewDef::new(n4, v4),
        ];
        assert!(engine.add_views(batch).is_err());
        assert_eq!(engine.live_view_count(), 2);
        assert_eq!(engine.stats().registrations, 2);
        assert_eq!(engine.snapshot_epoch(), epoch_before, "nothing published");
    }

    #[test]
    fn disjoint_writes_preserve_cache_entries() {
        let engine = engine_with_views(MatchConfig::default());
        let q = part_query(600, 900);
        let first = engine.find_substitutes(&q);
        // Removing the orders aggregate touches no table of the cached
        // part query, so its entry must survive.
        assert!(engine.remove_view(ViewId(3)));
        let again = engine.find_substitutes(&q);
        assert_eq!(first, again);
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1, "disjoint removal must not evict");
        assert_eq!(stats.cache_invalidations, 0);
        assert_eq!(stats.removals, 1);
        // A check constraint on a table the query never references keeps
        // the entry valid too.
        let (_, t) = tpch_catalog();
        engine
            .add_check_constraint(
                t.orders,
                BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(0i64)),
            )
            .unwrap();
        engine.find_substitutes(&q);
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_invalidations, 0);
    }

    #[test]
    fn overlapping_writes_invalidate_cache_entries() {
        let engine = engine_with_views(MatchConfig::default());
        let q = part_query(600, 900);
        engine.find_substitutes(&q);
        // Registering another part view overlaps the cached query's
        // tables: the entry must go stale and the new view must appear.
        let (name, v) = part_view(0, 10_000, "parts_all");
        engine.add_view(ViewDef::new(name, v)).unwrap();
        let subs = engine.find_substitutes(&q);
        assert_eq!(subs.len(), 3, "the freshly registered view matches too");
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_invalidations, 1);
        assert_eq!(stats.registrations, 5, "4 initial + 1");
        // A check constraint on the query's own table invalidates as well.
        let (_, t) = tpch_catalog();
        engine
            .add_check_constraint(
                t.part,
                BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(0i64)),
            )
            .unwrap();
        engine.find_substitutes(&q);
        assert_eq!(engine.stats().cache_invalidations, 2);
    }

    #[test]
    fn disabled_constraint_folding_preserves_cache_entries() {
        // With `use_check_constraints` off, a registered constraint never
        // reaches any query summary, so registration must not invalidate —
        // even on the query's own table.
        let engine = engine_with_views(MatchConfig {
            use_check_constraints: false,
            ..MatchConfig::default()
        });
        let q = part_query(600, 900);
        let first = engine.find_substitutes(&q);
        let (_, t) = tpch_catalog();
        engine
            .add_check_constraint(
                t.part,
                BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(0i64)),
            )
            .unwrap();
        let again = engine.find_substitutes(&q);
        assert_eq!(first, again);
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1, "unfolded constraint must not evict");
        assert_eq!(stats.cache_invalidations, 0);
    }

    #[test]
    fn strict_fresh_excludes_stale_views() {
        let engine = engine_with_views(MatchConfig {
            freshness: FreshnessPolicy::StrictFresh,
            ..MatchConfig::default()
        });
        let (_, t) = tpch_catalog();
        let q = part_query(600, 900);
        assert_eq!(engine.find_substitutes(&q).len(), 2);
        // A write round against part makes both part views stale.
        engine.record_base_write(t.part);
        assert!(engine.find_substitutes(&q).is_empty());
        assert_eq!(engine.view_staleness(ViewId(0)), Some(1));
        // `match_one` goes through the same gate.
        assert!(engine.match_one(&q, ViewId(0)).is_none());
        // Maintenance restamps parts_low; it alone serves again, Fresh.
        assert!(engine.mark_view_maintained(ViewId(0)));
        let subs = engine.find_substitutes(&q);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].0, ViewId(0));
        assert!(subs[0].1.freshness.is_fresh());
        // The orders aggregate never referenced part: still fresh.
        assert_eq!(engine.view_staleness(ViewId(3)), Some(0));
    }

    #[test]
    fn bounded_staleness_admits_and_stamps_lag() {
        let engine = engine_with_views(MatchConfig {
            freshness: FreshnessPolicy::BoundedStaleness(2),
            ..MatchConfig::default()
        });
        let (_, t) = tpch_catalog();
        let q = part_query(600, 900);
        engine.record_base_write(t.part);
        engine.record_base_write(t.part);
        // Two rounds behind: admitted at the bound, stamped with the lag.
        let subs = engine.find_substitutes(&q);
        assert_eq!(subs.len(), 2);
        for (_, sub) in &subs {
            assert_eq!(sub.freshness, Freshness::Stale { lag: 2 });
        }
        // A third round exceeds the bound.
        engine.record_base_write(t.part);
        assert!(engine.find_substitutes(&q).is_empty());
    }

    #[test]
    fn stale_ok_serves_everything_with_honest_stamps() {
        let engine = engine_with_views(MatchConfig::default());
        let (_, t) = tpch_catalog();
        let q = part_query(600, 900);
        let fresh = engine.find_substitutes(&q);
        assert!(fresh.iter().all(|(_, s)| s.freshness.is_fresh()));
        engine.record_base_write(t.part);
        // StaleOk (the default) still serves, but the stamp says stale:
        // the cached verdict survives the write, and rebuilding it stamps
        // each view with its lag under the current data epochs.
        let stale = engine.find_substitutes(&q);
        assert_eq!(stale.len(), fresh.len());
        assert!(stale
            .iter()
            .all(|(_, s)| s.freshness == Freshness::Stale { lag: 1 }));
        let stats = engine.stats();
        assert_eq!((stats.cache_hits, stats.cache_invalidations), (1, 0));
    }

    /// An engine holding one view, `orders ⋈ customer`, and a query over
    /// orders alone that FK elimination serves from it.
    fn orders_cust_engine(freshness: FreshnessPolicy) -> (MatchingEngine, SpjgExpr) {
        let (cat, t) = tpch_catalog();
        let engine = MatchingEngine::new(
            cat,
            MatchConfig {
                freshness,
                ..MatchConfig::default()
            },
        );
        let v = SpjgExpr::spj(
            vec![t.orders, t.customer],
            BoolExpr::col_eq(cr(0, 1), cr(1, 0)),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "o_orderkey"),
                NamedExpr::new(S::col(cr(0, 1)), "o_custkey"),
            ],
        );
        engine.add_view(ViewDef::new("orders_cust", v)).unwrap();
        let q = SpjgExpr::spj(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "o_orderkey")],
        );
        (engine, q)
    }

    /// The optimizer's plan-cache protocol with a stand-in plan: the views
    /// the search would scan. Like a real plan, it carries no lag.
    fn planned(engine: &MatchingEngine, q: &SpjgExpr) -> Vec<ViewId> {
        let pin = engine.views();
        match engine.probe_plan::<Vec<ViewId>>(&pin, 0, q) {
            PlanProbe::Hit(plan) => plan,
            PlanProbe::Miss(ticket) => {
                let plan: Vec<ViewId> = engine
                    .find_substitutes(q)
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect();
                engine.insert_plan(ticket, q, plan.clone());
                plan
            }
        }
    }

    fn plan_hits_and_misses(engine: &MatchingEngine) -> (u64, u64) {
        let s = engine.stats();
        (s.plan_cache_hits, s.plan_cache_misses)
    }

    #[test]
    fn writes_reach_cached_plans_only_under_a_freshness_policy() {
        let (_, t) = tpch_catalog();
        let view = vec![ViewId(0)];

        // StaleOk admits every view whatever its lag, so writing customer
        // — a table the query never names — leaves the plan a hit.
        let (engine, q) = orders_cust_engine(FreshnessPolicy::StaleOk);
        assert_eq!(planned(&engine, &q), view, "served from the join view");
        engine.record_base_write(t.customer);
        assert_eq!(planned(&engine, &q), view);
        assert_eq!(plan_hits_and_misses(&engine), (1, 1));

        // StrictFresh: the write makes the view stale, so the cached plan
        // misses and the re-plan serves no view.
        let (engine, q) = orders_cust_engine(FreshnessPolicy::StrictFresh);
        assert_eq!(planned(&engine, &q), view);
        assert_eq!(planned(&engine, &q), view, "a repeated plan is a hit");
        engine.record_base_write(t.customer);
        assert!(planned(&engine, &q).is_empty());
        // The restamp makes it fresh again: the plan misses once more, and
        // the re-plan serves the view.
        assert_eq!(engine.mark_views_maintained(&[ViewId(0)]), 1);
        assert_eq!(planned(&engine, &q), view);
        assert_eq!(plan_hits_and_misses(&engine), (1, 3));
        assert_eq!(engine.stats().cache_invalidations, 0, "no verdict moved");
    }

    #[test]
    fn write_to_an_unknown_table_publishes_nothing() {
        let (engine, q) = orders_cust_engine(FreshnessPolicy::StrictFresh);
        let unknown = TableId(engine.catalog().table_count() as u32);
        assert_eq!(planned(&engine, &q), vec![ViewId(0)]);
        let epoch = engine.snapshot_epoch();
        engine.record_base_write(unknown);
        assert_eq!(engine.snapshot_epoch(), epoch, "nothing recorded");
        assert_eq!(planned(&engine, &q), vec![ViewId(0)]);
        assert_eq!(plan_hits_and_misses(&engine), (1, 1));
    }

    #[test]
    fn cached_verdicts_apply_freshness_on_rebuild() {
        let (_, t) = tpch_catalog();
        let q = part_query(600, 900);
        let lags = |subs: &[(ViewId, Substitute)]| -> Vec<(ViewId, Freshness)> {
            subs.iter().map(|(id, s)| (*id, s.freshness)).collect()
        };
        let hits = |engine: &MatchingEngine| {
            let s = engine.stats();
            assert_eq!(s.cache_invalidations, 0, "writes touch no verdict");
            s.cache_hits
        };

        let engine = engine_with_views(MatchConfig {
            freshness: FreshnessPolicy::StrictFresh,
            ..MatchConfig::default()
        });
        assert_eq!(engine.find_substitutes(&q).len(), 2);
        // Both part views stale: the rebuilt verdict serves neither.
        engine.record_base_write(t.part);
        assert!(engine.find_substitutes(&q).is_empty());
        assert_eq!(hits(&engine), 1);
        // parts_low maintained: the same verdict serves it again, Fresh.
        assert_eq!(engine.mark_views_maintained(&[ViewId(0)]), 1);
        let subs = engine.find_substitutes(&q);
        assert_eq!(lags(&subs), vec![(ViewId(0), Freshness::Fresh)]);
        assert_eq!(hits(&engine), 2);
        // A verdict recorded while parts_mid is stale still lists it, so
        // restamping parts_mid serves it from the next hit.
        engine.clear_substitute_cache();
        assert_eq!(engine.find_substitutes(&q).len(), 1);
        assert_eq!(engine.mark_views_maintained(&[ViewId(1)]), 1);
        let subs = engine.find_substitutes(&q);
        let fresh = Freshness::Fresh;
        assert_eq!(lags(&subs), vec![(ViewId(0), fresh), (ViewId(1), fresh)]);
        assert_eq!(hits(&engine), 3);

        let engine = engine_with_views(MatchConfig {
            freshness: FreshnessPolicy::BoundedStaleness(1),
            ..MatchConfig::default()
        });
        engine.find_substitutes(&q);
        engine.record_base_write(t.part);
        let stale = Freshness::Stale { lag: 1 };
        let subs = engine.find_substitutes(&q);
        assert_eq!(lags(&subs), vec![(ViewId(0), stale), (ViewId(1), stale)]);
        // A second round passes the bound for the unmaintained view only.
        assert_eq!(engine.mark_views_maintained(&[ViewId(0)]), 1);
        engine.record_base_write(t.part);
        let subs = engine.find_substitutes(&q);
        assert_eq!(lags(&subs), vec![(ViewId(0), stale)]);
        assert_eq!(hits(&engine), 2);
    }

    #[test]
    fn integral_float_literal_is_not_the_equal_integer() {
        // A view outputting `o_orderkey * 2` serves integers; the query's
        // `o_orderkey * 2.0` yields floats, so the view column cannot
        // answer it, and the two queries must not share a cache entry.
        let (cat, t) = tpch_catalog();
        let engine = MatchingEngine::new(cat, MatchConfig::default());
        let doubled = |factor: S| S::col(cr(0, 0)).binary(BinOp::Mul, factor);
        let v = SpjgExpr::spj(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "o_orderkey"),
                NamedExpr::new(doubled(S::lit(2i64)), "twice"),
            ],
        );
        engine.add_view(ViewDef::new("doubled", v)).unwrap();
        let query = |factor: S| {
            SpjgExpr::spj(
                vec![t.orders],
                BoolExpr::Literal(true),
                vec![NamedExpr::new(doubled(factor), "x")],
            )
        };
        let (int_q, float_q) = (query(S::lit(2i64)), query(S::lit(2.0f64)));
        assert_ne!(fingerprint(&int_q), fingerprint(&float_q));
        assert_eq!(engine.find_substitutes(&int_q).len(), 1);
        assert!(engine.find_substitutes(&float_q).is_empty());
    }

    #[test]
    fn view_registered_after_writes_starts_fresh() {
        let engine = engine_with_views(MatchConfig {
            freshness: FreshnessPolicy::StrictFresh,
            ..MatchConfig::default()
        });
        let (_, t) = tpch_catalog();
        engine.record_base_write(t.part);
        // A view materialized *now* reflects the current data: its stamp
        // must equal the current epochs, not zero.
        let (name, v) = part_view(0, 10_000, "parts_all");
        let id = engine.add_view(ViewDef::new(name, v)).unwrap();
        assert_eq!(engine.view_staleness(id), Some(0));
        let subs = engine.find_substitutes(&part_query(600, 900));
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].0, id);
    }
}
