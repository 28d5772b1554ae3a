//! The matching engine and the `find_verdicts` entry point that a
//! transformation-based optimizer invokes as its view-matching rule:
//! filter, full tests, freshness gate, substitute cache. DESIGN.md §3 maps
//! the modules the rest of the engine lives in.

use crate::cache::{
    fingerprint, CacheLookup, CachedVerdicts, PlanCache, SubstituteCache, PLAN_CACHE_SHARE,
};
use crate::descriptor::PreparedView;
use crate::filter::strict_filter_exempt_levels;
use crate::matching::{match_view, Assemble, MatchConfig, PreparedQuery, Verdict};
use crate::snapshot::{CatalogSnapshot, ChecksGuard, ViewsGuard};
use crate::stats::{AtomicMatchStats, MatchStats};
use crate::summary::ExprSummary;
use crate::sync::{Mutex, Published};
use mv_catalog::Catalog;
use mv_expr::{ColRef, Conjunct};
use mv_plan::{Freshness, SpjgExpr, Substitute, ViewId};
use std::time::{Duration, Instant};

/// The engine owning the published catalog snapshot, the substitute and
/// plan caches and the instrumentation counters.
///
/// # Concurrency
///
/// The engine is an *online catalog*: every method — registration
/// (`add_view`, `add_views`, `remove_view`, `add_check_constraint`) as
/// well as the whole matching path (`find_verdicts`, `find_substitutes`,
/// `candidates`, `build_substitute`) — takes `&self`, so writers run
/// concurrently with matchers. Writers serialize among themselves on an
/// internal mutex, build the next immutable catalog snapshot by
/// copy-on-write, and publish it with one atomic pointer swap
/// (`MatchingEngine::publish`); readers pin the current
/// snapshot once per match and never observe a half-applied change. A
/// multi-threaded optimizer host can therefore share one engine behind an
/// `Arc`, match queries from any number of threads, and register views
/// mid-traffic.
#[derive(Debug)]
pub struct MatchingEngine {
    pub(crate) catalog: Catalog,
    pub(crate) config: MatchConfig,
    /// The atomically published catalog snapshot.
    pub(crate) shared: Published<CatalogSnapshot>,
    /// Serializes snapshot builders; never held by readers.
    pub(crate) writer: Mutex<()>,
    pub(crate) stats: AtomicMatchStats,
    /// Block-keyed cache of structural verdicts, invalidated per table via
    /// the snapshot's `table_epochs`.
    cache: SubstituteCache,
    /// Block-keyed cache of whole-query plans, invalidated per table via
    /// the snapshot's `table_epochs` and, unless the freshness policy is
    /// `StaleOk`, by its `freshness_epoch`.
    pub(crate) plans: PlanCache,
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

    /// Number of live (non-removed) views.
    pub fn live_view_count(&self) -> usize {
        self.snapshot().live_view_count()
    }

    /// The publication count of the current snapshot (diagnostics: every
    /// registration, removal or constraint declaration bumps it).
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Analyze a query, folding in the declared check constraints whose
    /// columns are all NOT NULL.
    pub fn query_summary(&self, query: &SpjgExpr) -> ExprSummary {
        self.query_summary_in(&self.snapshot(), query)
    }

    /// [`MatchingEngine::query_summary`] against a pinned snapshot — the
    /// matching pipeline calls this so one match sees one constraint set.
    fn query_summary_in(&self, snap: &CatalogSnapshot, query: &SpjgExpr) -> ExprSummary {
        if snap.checks.is_empty() {
            return ExprSummary::analyze(query);
        }
        let mut extras = Vec::new();
        for (occ, table) in query.occurrences() {
            let Some(conjs) = snap.checks.get(&table) else {
                continue;
            };
            let def = self.catalog.table(table);
            // SQL's CHECK passes on UNKNOWN: a check over a nullable column
            // admits NULL rows it does not constrain, so only a check over
            // NOT NULL columns holds of every row (DESIGN.md §15.1).
            let holds =
                |conj: &&Conjunct| conj.columns().iter().all(|c| def.column(c.col).not_null);
            for conj in conjs.iter().filter(holds) {
                // The closure is total, so the remap cannot fail; if a
                // future edit breaks that, dropping the conjunct only
                // weakens the antecedent (safe direction) — flag it in
                // debug builds instead of panicking in release.
                let mapped = conj.try_map_columns(&mut |c| Some(ColRef { occ, col: c.col }));
                debug_assert!(mapped.is_some(), "total column remap cannot fail");
                extras.extend(mapped);
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
    /// derefs to [`mv_plan::ViewSet`], so existing `engine.views().get(id)` call
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
        let (spj, agg) = self.query_searches(query, qsum);
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

    /// Run the full tests over `ids` (live views of `snap`, ascending).
    /// With `gate`, the freshness gate runs first: a view outside the
    /// configured staleness bound of the current data epochs skips the
    /// tests, and each one kept is stamped with its lag so callers see the
    /// guarantee. Without it, every view that passes is kept, unstamped —
    /// the structural verdicts a cache entry records. The counts are the
    /// loop's [`LoopWork`].
    fn match_candidates<Y: Assemble>(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        qsum: &ExprSummary,
        ids: &[ViewId],
        gate: bool,
    ) -> (Vec<(ViewId, Y)>, LoopWork) {
        let pq = PreparedQuery::new(query, qsum);
        let match_view = |pq: &PreparedQuery, id: ViewId, pv: &PreparedView| {
            match_view::<Y>(&self.catalog, &self.config, pq, id, snap.views.get(id), pv)
        };
        let mut out = Vec::new();
        for &id in ids {
            // Without the gate the lag is never read: a cache entry records
            // structural verdicts.
            let lag = gate.then(|| snap.view_lag(id));
            if lag.is_some_and(|lag| !self.config.freshness.admits(lag)) {
                continue;
            }
            let pv = snap.descriptors.prepared(id);
            let Some(mut sub) = match_view(&pq, id, pv) else {
                continue;
            };
            // Sharing must be invisible: a state of its own gives this
            // candidate the same substitute.
            #[cfg(debug_assertions)]
            assert_eq!(
                Some(&sub),
                match_view(&PreparedQuery::new(query, qsum), id, pv).as_ref(),
                "{id} matched through shared core state must be byte-identical \
                 to a match with fresh state"
            );
            if let Some(lag) = lag {
                sub.admit(Freshness::from_lag(lag));
            }
            out.push((id, sub));
        }
        let work = LoopWork {
            core_states: pq.core_states(),
            range_prefiltered: pq.range_prefiltered(),
        };
        (out, work)
    }

    /// Filter, match and debug-check — the uncached matching pipeline.
    /// With `entry`, the verdict of every view that passes the full tests
    /// is recorded there, fresh or not, before the freshness gate keeps
    /// the admitted ones; without it, a view the gate refuses skips the
    /// tests. Returns the admitted verdicts, the candidate count, the
    /// loop's work counts and the filter time.
    fn compute_verdicts(
        &self,
        pin: &ViewsGuard,
        query: &SpjgExpr,
        entry: Option<&mut CachedVerdicts>,
    ) -> (Vec<(ViewId, Verdict)>, usize, LoopWork, Duration) {
        let snap: &CatalogSnapshot = &pin.snap;
        let qsum = self.query_summary_in(snap, query);

        let filter_started = self.config.timing.then(Instant::now);
        let mut candidates = Vec::new();
        self.candidates_into_in(snap, query, &qsum, &mut candidates);
        let filter_time = elapsed(filter_started);

        let (mut out, work) =
            self.match_candidates(snap, query, &qsum, &candidates, entry.is_none());
        if let Some(entry) = entry {
            for (_, verdict) in &out {
                entry.push(verdict);
            }
            out.retain(|(id, _)| self.config.freshness.admits(snap.view_lag(*id)));
        }
        #[cfg(debug_assertions)]
        self.debug_assert_filter_complete(pin, query, &candidates);
        (out, candidates.len(), work, filter_time)
    }

    /// The view-matching rule: find every view from which `query` can be
    /// computed and build the substitutes — [`MatchingEngine::find_verdicts`]
    /// under one pinned snapshot, then the substitute of each view it
    /// returns, built under the same pin in one pass. The same views come
    /// back in the same order, and the counters move exactly as that one
    /// `find_verdicts` call moves them. Callable concurrently from any
    /// number of threads sharing the engine, including while other
    /// threads register or remove views. A block that fails
    /// [`SpjgExpr::validate`] has no substitutes.
    ///
    /// An optimizer that keeps at most one substitute per block calls
    /// `find_verdicts` itself, and builds only the one it keeps with
    /// [`MatchingEngine::build_substitute`].
    pub fn find_substitutes(&self, query: &SpjgExpr) -> Vec<(ViewId, Substitute)> {
        let pin = self.views();
        let ids: Vec<ViewId> = self
            .find_verdicts(&pin, query)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        self.build_substitutes(&pin.snap, query, &ids)
    }

    /// Every view from which `query` can be computed under the snapshot
    /// `pin` holds, as the [`Verdict`] the optimizer costs its substitute
    /// by: the substitutes themselves are not built. Updates the
    /// instrumentation counters.
    ///
    /// With the substitute cache enabled (see
    /// [`MatchConfig::substitute_cache_capacity`]), a repeated query block
    /// skips the filter tree and every failing candidate: the freshness
    /// gate runs over the pinned snapshot for each view the cache kept a
    /// verdict of, and the admitted verdicts are served as the entry
    /// holds them, with no query summary and no full test run. Debug
    /// builds prove every hit byte-identical to a fresh computation.
    /// Verdicts are stamped with the catalog epochs of the query's tables,
    /// so a registration over disjoint tables leaves them valid and a
    /// base-table write touches none. Hits replay the original candidate
    /// count into the stats so counter totals stay path-independent. A
    /// block that fails [`SpjgExpr::validate`] has no verdicts.
    /// [`MatchingEngine::build_substitute`] under the same pin builds the
    /// substitute of any view a verdict names.
    pub fn find_verdicts(&self, pin: &ViewsGuard, query: &SpjgExpr) -> Vec<(ViewId, Verdict)> {
        let snap = &pin.snap;
        let started = self.config.timing.then(Instant::now);
        // The block's hash and the stamp of the pinned snapshot; `None`
        // with the cache off, which then hashes nothing.
        let key = self
            .cache
            .is_enabled()
            .then(|| (fingerprint(query).hash, snap.table_stamp(query)));
        let probe = key.as_ref().map_or(CacheLookup::Disabled, |(hash, stamp)| {
            self.cache.lookup(*hash, |g| g.identical(query), stamp)
        });
        match probe {
            CacheLookup::Hit(entry) => {
                let results: Vec<(ViewId, Verdict)> = entry
                    .admitted(snap, self.config.freshness)
                    .map(|v| (v.view, v))
                    .collect();
                #[cfg(debug_assertions)]
                {
                    let (fresh, ..) = self.compute_verdicts(pin, query, None);
                    assert_eq!(
                        results, fresh,
                        "a cache hit must be byte-identical to a fresh \
                         computation for the probing query"
                    );
                }
                self.stats.record_cache_hit();
                self.stats.record(
                    entry.candidates(),
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
        // Checked here, past the probe: a malformed block is never
        // inserted, so it never hits, and a hit pays nothing for the check.
        if query.validate(&self.catalog).is_err() {
            return Vec::new();
        }
        let mut passed = CachedVerdicts::default();
        let (out, n_candidates, work, filter_time) =
            self.compute_verdicts(pin, query, key.is_some().then_some(&mut passed));
        self.stats.record_core_states(work.core_states);
        self.stats.record_range_prefiltered(work.range_prefiltered);
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
        if let Some((hash, stamp)) = key {
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
            let entry = passed.finish(n_candidates);
            let evicted = self.cache.insert(hash, query.clone(), stamp, entry, cost);
            if evicted {
                self.stats.record_cache_eviction();
            }
        }
        out
    }

    /// Drop every cached verdict (capacity unchanged).
    pub fn clear_substitute_cache(&self) {
        self.cache.clear();
    }

    /// Number of live entries in the substitute cache.
    pub fn substitute_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// [`MatchingEngine::find_verdicts`] against `pin`, past the
    /// substitute cache and the counters: the search the optimizer re-runs
    /// on every plan-cache hit of a debug build, to assert the hit equals
    /// it. Never call outside that check.
    #[cfg(debug_assertions)]
    // Read-only, and compiled out of release builds; the optimizer's
    // plan-cache oracle calls it from another crate. mv-lint: allow(MV207)
    #[doc(hidden)]
    pub fn fresh_verdicts(&self, pin: &ViewsGuard, query: &SpjgExpr) -> Vec<(ViewId, Verdict)> {
        self.compute_verdicts(pin, query, None).0
    }

    /// Build the substitute of `view` for `query` under the snapshot `pin`
    /// holds: the one substitute the optimizer keeps of the
    /// [`Verdict`]s [`MatchingEngine::find_verdicts`] returned under the
    /// same pin, and the one way to match a query against one chosen
    /// view. A verdict's view builds under its pin, with the freshness
    /// the gate admitted it under; under another snapshot the view may
    /// have been removed or gone stale. Bypasses the filter, the cache
    /// and the counters. `None` for a removed or out-of-range view, a
    /// view the freshness gate refuses, and a query that fails
    /// [`SpjgExpr::validate`] — an id or a block is data here, not a
    /// proven-valid handle.
    pub fn build_substitute(
        &self,
        pin: &ViewsGuard,
        query: &SpjgExpr,
        view: ViewId,
    ) -> Option<Substitute> {
        if !pin.snap.is_live(view) || query.validate(&self.catalog).is_err() {
            return None;
        }
        let built = self.build_substitutes(&pin.snap, query, &[view]);
        built.into_iter().next().map(|(_, sub)| sub)
    }

    /// The substitutes of `ids` (live views of `snap`, ascending) for a
    /// valid `query`, each through the full tests and the freshness gate
    /// and debug-checked by the soundness oracles; a view that fails
    /// either is left out.
    fn build_substitutes(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        ids: &[ViewId],
    ) -> Vec<(ViewId, Substitute)> {
        // `find_substitutes` passes no id for a block that fails
        // validation, which is then never summarized.
        if ids.is_empty() {
            return Vec::new();
        }
        let qsum = self.query_summary_in(snap, query);
        let (out, _) = self.match_candidates(snap, query, &qsum, ids, true);
        #[cfg(debug_assertions)]
        self.debug_check(snap, query, &out);
        out
    }

    // ------------------------------------------------------------------
    // Audit API: read-only views into the filter index for `mv-audit`.
    // ------------------------------------------------------------------

    /// Has this view been dropped with [`MatchingEngine::remove_view`]?
    pub fn is_removed(&self, id: ViewId) -> bool {
        self.snapshot().removed.contains(&id)
    }

    /// Every `(view, stored per-level keys)` entry across both filter
    /// trees, exactly as the index holds them (normalized). SPJ entries
    /// carry [`crate::SPJ_LEVELS`] keys, aggregation entries
    /// [`crate::AGG_LEVELS`].
    pub fn filter_entries(&self) -> Vec<(ViewId, Vec<Vec<u64>>)> {
        let snap = self.snapshot();
        let mut out = snap.spj_tree.entries();
        out.extend(snap.agg_tree.entries());
        out
    }

    /// The filter tree's completeness check (paper section 4: a search
    /// must return a superset of the views the section 3 tests accept):
    /// every live view of `pin` outside `candidates` (sorted, as a search
    /// returns them) that the full tests accept for `query`, in id order,
    /// with the levels whose condition the keys `keys` gives for the view
    /// fail. The match is structural, past the freshness gate:
    /// completeness is a property of the index, so a stale view a search
    /// drops is a miss too. The debug oracle hands it the keys each view
    /// derives, `mv-audit`'s MV102 the entries a tree stores. Empty with
    /// the filter tree off and for a block that fails
    /// [`SpjgExpr::validate`].
    pub fn filter_misses<K: AsRef<[Vec<u64>]>>(
        &self,
        pin: &ViewsGuard,
        query: &SpjgExpr,
        candidates: &[ViewId],
        keys: impl Fn(ViewId) -> Option<K>,
    ) -> Vec<FilterMiss> {
        let snap = &pin.snap;
        if !self.config.use_filter_tree || query.validate(&self.catalog).is_err() {
            return Vec::new();
        }
        let qsum = self.query_summary_in(snap, query);
        let (spj, agg) = self.query_searches(query, &qsum);
        let pq = PreparedQuery::new(query, &qsum);
        let mut out = Vec::new();
        for (id, view) in snap.views.iter() {
            if !snap.is_live(id) || candidates.binary_search(&id).is_ok() {
                continue;
            }
            let pv = snap.descriptors.prepared(id);
            if match_view::<Verdict>(&self.catalog, &self.config, &pq, id, view, pv).is_none() {
                continue;
            }
            let is_agg = view.expr.is_aggregate();
            let searches = if is_agg { &agg } else { &spj };
            let levels: Vec<usize> = keys(id).map_or_else(Vec::new, |keys| {
                (searches.iter().zip(keys.as_ref()).enumerate())
                    .filter(|(_, (s, key))| !s.accepts(key))
                    .map(|(lvl, _)| lvl)
                    .collect()
            });
            let exempt = self.config.strict_expression_filter
                && !levels.is_empty()
                && levels
                    .iter()
                    .all(|l| strict_filter_exempt_levels(is_agg).contains(l));
            out.push(FilterMiss {
                view: id,
                levels,
                exempt,
            });
        }
        out
    }

    /// Bytes the descriptor store of the current snapshot reserves for
    /// its pointer tables (not the descriptors behind them). The bench
    /// harness divides this by the live view count for its
    /// `bytes_per_view_arena` column.
    pub fn arena_bytes(&self) -> usize {
        self.snapshot().descriptors.arena_bytes()
    }
}

/// The work counts of one candidate loop ([`crate::MatchStats`] sums them
/// per invocation).
#[derive(Debug, Clone, Copy)]
struct LoopWork {
    /// Join-core states built: candidates over one core share everything
    /// up to the equijoin test through one [`PreparedQuery`].
    core_states: usize,
    /// Candidates the early range test rejected before their core was
    /// looked up ([`PreparedQuery::refutes_ranges`]).
    range_prefiltered: usize,
}

/// A live view the full tests accept for a query that a filter-tree
/// search did not return ([`MatchingEngine::filter_misses`]).
#[derive(Debug)]
pub struct FilterMiss {
    /// The view.
    pub view: ViewId,
    /// The levels whose search condition the view's keys fail, ascending
    /// ([`crate::LEVEL_NAMES`]); empty when there are no keys for the
    /// view, which is then missing from its tree. An aggregation view
    /// matched for a non-aggregate query has none either: that query
    /// never searches the aggregation tree (section 3.3).
    pub levels: Vec<usize>,
    /// Only the levels the strict expression filter
    /// ([`MatchConfig::strict_expression_filter`], section 4.2.7) is
    /// documented to be incomplete at failed: the matcher recomputes an
    /// expression the filter requires verbatim. Conservatism, not an
    /// index fault.
    pub exempt: bool,
}

/// `Instant::elapsed` for a gated timer: `Duration::ZERO` when timing is
/// off ([`MatchConfig::timing`] = false).
fn elapsed(started: Option<Instant>) -> Duration {
    started.map_or(Duration::ZERO, |t| t.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FreshnessPolicy, PlanProbe, SPJ_LEVELS};
    use mv_catalog::tpch::tpch_catalog;
    use mv_catalog::TableId;
    use mv_expr::{BinOp, BoolExpr, CmpOp, ScalarExpr as S};
    use mv_plan::{AggFunc, NamedAgg, NamedExpr, ViewDef};
    use std::collections::HashMap;

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

    /// Damage the index the way a lost or drifted entry would: take `id`
    /// out of its filter tree and, given keys, file it again under them.
    /// `false`, publishing nothing, when the view is not live or not filed
    /// under its derived keys.
    fn refile(engine: &MatchingEngine, id: ViewId, keys: Option<&[Vec<u64>]>) -> bool {
        engine
            .publish(|next| {
                if !engine.unfile(next, id) {
                    return None;
                }
                if let Some(keys) = keys {
                    let tree = if next.views.get(id).expr.is_aggregate() {
                        &mut next.agg_tree
                    } else {
                        &mut next.spj_tree
                    };
                    crate::sync::Arc::make_mut(tree).insert(keys, id);
                }
                Some(())
            })
            .is_some()
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
    fn build_substitute_bypasses_filter() {
        let engine = engine_with_views(MatchConfig::default());
        let q = part_query(600, 900);
        let pin = engine.views();
        assert!(engine.build_substitute(&pin, &q, ViewId(0)).is_some());
        assert!(engine.build_substitute(&pin, &q, ViewId(2)).is_none());
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
        assert!(engine
            .build_substitute(&engine.views(), &q, ViewId(0))
            .is_none());
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
            .build_substitute(&engine.views(), &part_query(600, 900), ViewId(99))
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
        assert!(refile(&engine, ViewId(0), None));
        assert!(!view_in_tree(&engine, ViewId(0)));
        assert_eq!(engine.filter_entries().len(), 3);
        assert_eq!(engine.live_view_count(), 4);
        // Removed views have no keys and are filed nowhere.
        let engine = engine_with_views(MatchConfig::default());
        engine.remove_view(ViewId(1));
        assert!(engine.view_filter_keys(ViewId(1)).is_none());
        assert!(!refile(&engine, ViewId(1), None));
    }

    #[test]
    fn text_tokens_do_not_depend_on_registration_order() {
        // Each view carries a residual and an output-expression text no
        // other view has: keyed by the text alone, every view's keys come
        // out the same whichever order the views arrive in.
        let (_, t) = tpch_catalog();
        let view = |name: &str, pattern: &str, op: BinOp, k: i64| {
            let like = BoolExpr::Like {
                expr: S::col(cr(0, 1)),
                pattern: pattern.into(),
                negated: false,
            };
            let outputs = vec![
                NamedExpr::new(S::col(cr(0, 0)), "p_partkey"),
                NamedExpr::new(S::col(cr(0, 5)).binary(op, S::lit(k)), "e"),
            ];
            ViewDef::new(name, SpjgExpr::spj(vec![t.part], like, outputs))
        };
        let defs = vec![
            view("doubled_a", "a%", BinOp::Mul, 2),
            view("shifted_b", "b%", BinOp::Add, 1),
            view("shrunk_c", "c%", BinOp::Sub, 3),
        ];
        let keys_by_name = |defs: Vec<ViewDef>| {
            let engine = MatchingEngine::new(tpch_catalog().0, MatchConfig::default());
            engine.add_views(defs).unwrap();
            let views = engine.views();
            let keys: HashMap<String, Vec<Vec<u64>>> = engine
                .filter_entries()
                .into_iter()
                .map(|(id, keys)| (views.get(id).name.clone(), keys))
                .collect();
            keys
        };
        let forward = keys_by_name(defs.clone());
        let backward = keys_by_name(defs.into_iter().rev().collect());
        assert_eq!(forward.len(), 3);
        assert!(forward.values().all(|k| k[2].len() == 1 && k[4].len() == 1));
        assert_eq!(forward, backward);
    }

    #[test]
    fn refile_moves_the_index_entry() {
        let engine = engine_with_views(MatchConfig::default());
        let mut keys = engine.view_filter_keys(ViewId(0)).unwrap();
        keys.truncate(SPJ_LEVELS);
        keys[4].push(999_999); // bogus residual token
        assert!(refile(&engine, ViewId(0), Some(&keys)));
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
        assert!(refile(&engine, ViewId(0), None));
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
        // `build_substitute` goes through the same gate.
        assert!(engine
            .build_substitute(&engine.views(), &q, ViewId(0))
            .is_none());
        // Maintenance restamps parts_low; it alone serves again, Fresh.
        assert_eq!(engine.mark_views_maintained(&[ViewId(0)]), 1);
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
        // the cached verdict survives the write, and each substitute built
        // from it is stamped with its view's lag under the current epochs.
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
        // Both part views stale: the cached verdict serves neither.
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
        assert_eq!(engine.find_substitutes(&int_q).len(), 1);
        assert!(engine.find_substitutes(&float_q).is_empty());
        // The two blocks hash equal by design; the guard tells them
        // apart, and the second one replaces the first's entry.
        let s = engine.stats();
        assert_eq!((s.cache_misses, s.cache_hits, s.cache_evictions), (2, 0, 1));
        assert!(engine.find_substitutes(&float_q).is_empty());
        assert_eq!(engine.stats().cache_hits, 1, "the float block hits itself");
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
