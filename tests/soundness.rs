//! The central soundness property of the reproduction, checked with
//! property-based testing:
//!
//! > Whenever the matcher says a query can be computed from a view, then
//! > executing the substitute against the materialized view returns
//! > exactly the same bag of rows as executing the query against base
//! > tables.
//!
//! Views and queries come from the section 5 random generator, so the
//! property is exercised across joins, extra-table elimination, range and
//! residual compensation, and aggregation roll-ups.

use matview::prelude::*;
use mv_lint::oracle::{register_views, Oracle};
use proptest::prelude::*;

/// Run one soundness round: generate views and queries from the given
/// seeds and run the oracle over every query: every substitute the engine
/// proposes, and the query's plan, executed against the query's rows.
/// The plans are searched without views: the view-matching rule runs the
/// debug build's matcher oracles on every subset the optimizer visits,
/// seconds a query on some of these seeds, and
/// `optimized_plans_are_sound_over_random_workload` checks plans over
/// views. Returns the number of substitutes verified.
fn soundness_round(
    view_seed: u64,
    query_seed: u64,
    data_seed: u64,
    n_views: usize,
    n_queries: usize,
) -> usize {
    soundness_round_cfg(
        view_seed,
        query_seed,
        data_seed,
        n_views,
        n_queries,
        MatchConfig::default(),
    )
}

fn soundness_round_cfg(
    view_seed: u64,
    query_seed: u64,
    data_seed: u64,
    n_views: usize,
    n_queries: usize,
    config: MatchConfig,
) -> usize {
    let (db, _) = generate_tpch(&TpchScale::tiny(), data_seed);
    let engine = MatchingEngine::new(db.catalog.clone(), config);
    let views = Generator::new(&db.catalog, WorkloadParams::views(), view_seed).views(n_views);
    let store = register_views(&engine, &db, views);
    let mut oracle = Oracle {
        optimizer: OptimizerConfig {
            use_views: false,
            ..OptimizerConfig::default()
        },
        ..Oracle::new(&engine, &db, &store)
    };
    let queries =
        Generator::new(&db.catalog, WorkloadParams::queries(), query_seed).queries(n_queries);
    for (i, q) in queries.iter().enumerate() {
        oracle.check_query(q, &format!("q{i}")).assert_sound();
    }
    oracle.counts.exec_checked
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn substitutes_are_always_sound(
        view_seed in 0u64..1_000_000,
        query_seed in 0u64..1_000_000,
        data_seed in 0u64..1_000,
    ) {
        soundness_round(view_seed, query_seed, data_seed, 30, 25);
    }
}

/// A deterministic heavier round so plain `cargo test` always verifies a
/// meaningful number of substitutes even if proptest happens to draw
/// workloads with few matches.
#[test]
fn soundness_smoke_many_matches() {
    let mut total = 0;
    for round in 0..4u64 {
        total += soundness_round(1000 + round, 2000 + round, 17, 120, 60);
    }
    assert!(
        total >= 5,
        "expected several substitutes across rounds, got {total}"
    );
}

/// The backjoin extension must preserve the soundness property. Skinny
/// view outputs force the matcher through the backjoin path often.
#[test]
fn backjoin_substitutes_are_sound() {
    let config = MatchConfig {
        allow_backjoins: true,
        ..MatchConfig::default()
    };
    let mut total = 0;
    for round in 0..4u64 {
        total += soundness_round_cfg(3000 + round, 4000 + round, 19, 120, 60, config.clone());
    }
    // Backjoins strictly widen the match set, so this must find at least
    // as many substitutes as the strict smoke rounds.
    assert!(total >= 5, "got {total}");
}

/// Backjoins only ever add matches, never remove them.
#[test]
fn backjoins_widen_the_match_set() {
    let (db, _) = generate_tpch(&TpchScale::tiny(), 23);
    let views = Generator::new(&db.catalog, WorkloadParams::views(), 81).views(100);
    let queries = Generator::new(&db.catalog, WorkloadParams::queries(), 82).queries(50);
    let strict = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
    let extended = MatchingEngine::new(
        db.catalog.clone(),
        MatchConfig {
            allow_backjoins: true,
            ..MatchConfig::default()
        },
    );
    for v in views {
        strict.add_view(v.clone()).unwrap();
        extended.add_view(v).unwrap();
    }
    let mut extra = 0usize;
    for q in &queries {
        let a: std::collections::HashSet<ViewId> = strict
            .find_substitutes(q)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        let b: std::collections::HashSet<ViewId> = extended
            .find_substitutes(q)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        assert!(a.is_subset(&b), "backjoins removed a match for {q:#?}");
        extra += b.len() - a.len();
    }
    println!("extra matches from backjoins: {extra}");
}

/// Optimizer-level soundness: whatever plan wins (views, pre-aggregation,
/// plain joins), executing it equals direct evaluation.
#[test]
fn optimized_plans_are_sound_over_random_workload() {
    let (db, _) = generate_tpch(&TpchScale::tiny(), 5);
    let engine = MatchingEngine::new(db.catalog.clone(), MatchConfig::default());
    let views = Generator::new(&db.catalog, WorkloadParams::views(), 31).views(40);
    let store = register_views(&engine, &db, views);
    let mut oracle = Oracle::new(&engine, &db, &store);
    let queries = Generator::new(&db.catalog, WorkloadParams::queries(), 32).queries(40);
    let mut used_views = 0;
    for (i, q) in queries.iter().enumerate() {
        let checked = oracle.check_query(q, &format!("q{i}")).assert_sound();
        used_views += checked.plan.expect("a plan").plan.uses_view() as usize;
    }
    // Not an assertion about exact counts — just confirm the whole
    // pipeline is live.
    println!("plans using views: {used_views}/40");
}
