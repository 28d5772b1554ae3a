//! The debug-build oracles the match pipeline runs on its own output:
//! filter-tree completeness, mv-verify's static soundness rules, and
//! mv-prove's bounded equivalence check. Compiled out of release builds,
//! and the only place mv-core calls either checker. The completeness
//! check itself is [`MatchingEngine::filter_misses`], which `mv-audit`'s
//! MV102 runs in every build; this module only decides what panics. The
//! caps and the prove budget are constants, not configuration.

use crate::filter::LEVEL_NAMES;
use crate::snapshot::{CatalogSnapshot, ViewsGuard};
use crate::MatchingEngine;
use mv_plan::{SpjgExpr, Substitute, ViewId};

impl MatchingEngine {
    /// Completeness oracle, the dual of [`MatchingEngine::debug_check`]:
    /// after every filtered `find_verdicts`, panic if
    /// [`MatchingEngine::filter_misses`] finds a live view the filter
    /// tree pruned that actually matches — unless the only rejecting
    /// levels are the documented strict-expression-filter conservatism
    /// (section 4.2.7). Every test exercising the matching path in a
    /// debug build therefore doubles as a proof obligation that
    /// filter-tree candidates ⊇ exhaustive matches. Capped at a modest
    /// catalog size so large debug workload tests stay fast.
    pub(crate) fn debug_assert_filter_complete(
        &self,
        pin: &ViewsGuard,
        query: &SpjgExpr,
        candidates: &[ViewId],
    ) {
        const DEBUG_COMPLETENESS_CAP: usize = 512;
        if pin.snap.live_view_count() > DEBUG_COMPLETENESS_CAP {
            return;
        }
        let keys = |id| self.view_filter_keys_in(&pin.snap, id);
        for miss in self.filter_misses(pin, query, candidates, keys) {
            let view = pin.get(miss.view);
            assert!(
                !view.expr.is_aggregate() || query.is_aggregate(),
                "matcher accepted aggregation view `{}` for a non-aggregate \
                 query — invalid per section 3.3",
                view.name
            );
            if miss.exempt {
                continue;
            }
            let levels: Vec<&str> = miss.levels.iter().map(|&l| LEVEL_NAMES[l]).collect();
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
    /// plans, so it visits at most 2,000 databases per pair, and is
    /// capped at a catalog size for functional tests. Since the
    /// compiled-program prover (DESIGN.md §16) that budget is cheap
    /// enough for every debug build.
    pub(crate) fn debug_check(
        &self,
        snap: &CatalogSnapshot,
        query: &SpjgExpr,
        results: &[(ViewId, Substitute)],
    ) {
        const DEBUG_PROVE_CAP: usize = 64;
        const DEBUG_PROVE_BUDGET: u64 = 2_000;
        let ctx = mv_verify::VerifyContext::new(&self.catalog, &snap.checks);
        let prove = (snap.views.len() <= DEBUG_PROVE_CAP).then(|| mv_prove::ProveConfig {
            max_databases: DEBUG_PROVE_BUDGET,
            ..mv_prove::ProveConfig::default()
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
