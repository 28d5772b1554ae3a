//! The debug-build oracles the match pipeline runs on its own output:
//! filter-tree completeness, mv-verify's static soundness rules, and
//! mv-prove's bounded equivalence check. Compiled out of release builds,
//! and the only place mv-core calls either checker.

use crate::filter::{strict_filter_exempt_levels, LEVEL_NAMES};
use crate::matching::{match_view, PreparedQuery, Verdict};
use crate::snapshot::CatalogSnapshot;
use crate::summary::ExprSummary;
use crate::MatchingEngine;
use mv_plan::{SpjgExpr, Substitute, ViewId};

impl MatchingEngine {
    /// Completeness oracle, the dual of [`MatchingEngine::debug_check`]:
    /// after every filtered `find_verdicts`, exhaustively re-match each
    /// live view the filter tree pruned and panic if one of them actually
    /// matches — unless the only rejecting levels are the documented
    /// strict-expression-filter conservatism
    /// ([`strict_filter_exempt_levels`], section 4.2.7). Every test
    /// exercising the matching path in a debug build therefore doubles as
    /// a proof obligation that filter-tree candidates ⊇ exhaustive
    /// matches. Capped at a modest catalog size so large debug workload
    /// tests stay fast.
    pub(crate) fn debug_assert_filter_complete(
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
        let (spj, agg) = self.query_searches(query, qsum);
        let pq = PreparedQuery::new(query, qsum);
        for (id, view) in snap.views.iter() {
            // `candidates` is sorted (see `candidates_into`).
            if snap.removed.contains(&id) || candidates.binary_search(&id).is_ok() {
                continue;
            }
            let pv = snap.descriptors.prepared(id);
            if match_view::<Verdict>(&self.catalog, &self.config, &pq, id, view, pv).is_none() {
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

    /// Soundness oracles over every substitute the matcher just built:
    /// the independent `mv-verify` analyzer, which panics on any
    /// ERROR-severity diagnostic, then the `mv-prove` bounded model
    /// checker (DESIGN.md §15), which panics on a refutation with the
    /// witness database rendered. Neither shares logic with the matcher,
    /// so every test exercising the matching path doubles as a soundness
    /// test for all three. Proving enumerates databases and executes both
    /// plans, so it is off unless [`crate::MatchConfig::prove_budget`] is
    /// nonzero, and capped at a catalog size for functional tests.
    pub(crate) fn debug_check(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        results: &[(ViewId, Substitute)],
    ) {
        const DEBUG_PROVE_CAP: usize = 64;
        let ctx = mv_verify::VerifyContext::new(&self.catalog, &snap.checks);
        let prove =
            (self.config.prove_budget > 0 && snap.views.len() <= DEBUG_PROVE_CAP).then(|| {
                mv_prove::ProveConfig {
                    max_databases: self.config.prove_budget as u64,
                    ..mv_prove::ProveConfig::default()
                }
            });
        for (id, sub) in results {
            let view = snap.views.get(*id);
            let errors: Vec<String> =
                mv_verify::verify_substitute(&ctx, query, &view.expr, sub, &view.name, "query")
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
            let Some(cfg) = &prove else { continue };
            let ctx = mv_prove::ProveCtx::new(&self.catalog, &snap.checks);
            let outcome = mv_prove::prove(&ctx, query, &view.expr, sub, cfg);
            if outcome.is_refuted() {
                let tables = mv_prove::pair_tables(query, &view.expr, sub);
                let diags: Vec<String> =
                    mv_prove::prove_diagnostics(&outcome, &view.name, "query", &tables, cfg)
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
