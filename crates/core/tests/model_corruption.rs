//! Concurrency corruption suite: prove the model-checker harness has
//! teeth by weakening one edge of the catalog's concurrency protocol at a
//! time (`mv_core::mutation`) and asserting that `mv_model::explore` pins
//! every weakening to a *failing schedule with a replayable seed*. This
//! is the concurrency analogue of mv-verify's soundness corruption suite:
//! a checker that never fails proves nothing.
//!
//! The seventh seeded mutation — publication downgraded from release/acquire
//! to relaxed — lives in `crates/model/tests/explorer.rs`
//! (`relaxed_publication_is_pinned_to_a_failing_schedule`), where the
//! memory-model shims themselves are exercised directly.
//!
//! The mutation selector is process-global, so every test serializes on
//! one mutex and restores `NONE` before releasing it.
#![cfg(mv_model)]

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mv_catalog::tpch::tpch_catalog;
use mv_catalog::{Catalog, TableId};
use mv_core::{mutation, MatchConfig, MatchingEngine, PlanProbe};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_model::{explore, replay, Config};
use mv_plan::{NamedExpr, SpjgExpr, ViewDef};

/// Serializes the tests in this binary: the mutation selector is a
/// process-global, and the default test harness runs `#[test]`s on
/// concurrent threads.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

struct Fixture {
    catalog: Catalog,
    part: TableId,
}

fn fixture() -> Fixture {
    let (catalog, t) = tpch_catalog();
    Fixture {
        catalog,
        part: t.part,
    }
}

/// `SELECT p_partkey, p_size FROM part WHERE p_size < bound`.
fn part_view(fx: &Fixture, name: &str, bound: i64) -> ViewDef {
    ViewDef::new(
        name,
        SpjgExpr::spj(
            vec![fx.part],
            BoolExpr::cmp(S::col(ColRef::new(0, 5)), CmpOp::Lt, S::lit(bound)),
            vec![
                NamedExpr::new(S::col(ColRef::new(0, 0)), "p_partkey"),
                NamedExpr::new(S::col(ColRef::new(0, 5)), "p_size"),
            ],
        ),
    )
}

/// `SELECT p_partkey FROM part WHERE p_size < 50`.
fn part_query(fx: &Fixture) -> SpjgExpr {
    SpjgExpr::spj(
        vec![fx.part],
        BoolExpr::cmp(S::col(ColRef::new(0, 5)), CmpOp::Lt, S::lit(50)),
        vec![NamedExpr::new(S::col(ColRef::new(0, 0)), "p_partkey")],
    )
}

fn engine(fx: &Fixture, cache_capacity: usize) -> Arc<MatchingEngine> {
    Arc::new(MatchingEngine::new(
        fx.catalog.clone(),
        MatchConfig {
            timing: false,
            substitute_cache_capacity: cache_capacity,
            ..MatchConfig::default()
        },
    ))
}

fn names(engine: &MatchingEngine, query: &SpjgExpr) -> BTreeSet<String> {
    let subs = engine.find_substitutes(query);
    // Pinned after the match: a racing registration may have published
    // the view a substitute scans after an earlier pin.
    let views = engine.views();
    subs.iter()
        .map(|(id, _)| views.get(*id).name.clone())
        .collect()
}

/// The optimizer's plan-cache protocol with a stand-in plan mv-core can
/// build (it cannot depend on the optimizer): pin, probe, and on a miss
/// derive the "plan" from `find_substitutes` and insert it under the
/// ticket.
fn planned(engine: &MatchingEngine, query: &SpjgExpr) -> BTreeSet<String> {
    let pin = engine.views();
    match engine.probe_plan::<BTreeSet<String>>(&pin, 0, query) {
        PlanProbe::Hit(plan) => plan,
        PlanProbe::Miss(ticket) => {
            let plan = names(engine, query);
            engine.insert_plan(ticket, query, plan.clone());
            plan
        }
    }
}

/// A planner races a registration over the query's table; once both are
/// done, the next plan must see the registered view.
fn plan_race(fx: &Fixture, query: &SpjgExpr) {
    let engine = engine(fx, 16);
    engine
        .add_view(part_view(fx, "old", 100))
        .expect("base view registers");
    let writer = {
        let engine = Arc::clone(&engine);
        let view = part_view(fx, "fresh", 60);
        mv_model::thread::spawn(move || {
            engine.add_view(view).expect("racing registration succeeds");
        })
    };
    let planner = {
        let engine = Arc::clone(&engine);
        let query = query.clone();
        mv_model::thread::spawn(move || {
            // Plan while the registration may land between probe and insert.
            planned(&engine, &query);
        })
    };
    writer.join().expect("writer joins");
    planner.join().expect("planner joins");
    let got = planned(&engine, query);
    assert!(
        got.contains("fresh"),
        "quiescent plan {got:?} is missing the registered view"
    );
}

fn cfg() -> Config {
    Config {
        preemption_bound: 2,
        max_schedules: 60_000,
        ..Config::default()
    }
}

/// Activate `mutation`, explore `program` until it fails, then prove the
/// printed seed deterministically replays the failure.
fn pin(mutation: u32, what: &str, program: impl Fn()) {
    let _guard = serial();
    mutation::set(mutation);
    let report = explore(&cfg(), &program);
    let outcome = report.failure.clone();
    let replayed = outcome
        .as_ref()
        .map(|failure| replay(&cfg(), &failure.seed, &program));
    mutation::set(mutation::NONE);

    let failure = outcome.unwrap_or_else(|| {
        panic!("{what}: mutation {mutation} was not pinned to any failing schedule")
    });
    eprintln!(
        "{what}: pinned mutation {mutation} in {} schedules — replay seed: {}",
        report.schedules,
        if failure.seed.is_empty() {
            "<first schedule>"
        } else {
            &failure.seed
        }
    );
    let replayed = replayed.expect("replay ran");
    assert!(
        replayed.is_some(),
        "{what}: seed {:?} did not replay the failure",
        failure.seed
    );
}

/// Mutation 1: writers skip the writer mutex, so two clone-modify-publish
/// registrations interleave and one is lost.
#[test]
fn skip_writer_lock_loses_a_registration() {
    let fx = fixture();
    pin(mutation::SKIP_WRITER_LOCK, "skip-writer-lock", || {
        let engine = engine(&fx, 0);
        let handles: Vec<_> = [part_view(&fx, "left", 70), part_view(&fx, "right", 90)]
            .into_iter()
            .map(|view| {
                let engine = Arc::clone(&engine);
                mv_model::thread::spawn(move || {
                    engine.add_view(view).expect("registration succeeds");
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("writer joins");
        }
        assert_eq!(engine.live_view_count(), 2, "a registration was lost");
    });
}

/// Mutation 2: `add_view` publishes without bumping the view's table
/// epochs, so a cache entry from before the registration keeps matching
/// the current stamp and is served stale.
#[test]
fn skip_epoch_bump_on_add_serves_stale_cache() {
    let fx = fixture();
    let query = part_query(&fx);
    pin(
        mutation::SKIP_EPOCH_BUMP_ON_ADD,
        "skip-epoch-bump-on-add",
        || {
            let engine = engine(&fx, 16);
            engine
                .add_view(part_view(&fx, "old", 100))
                .expect("base view registers");
            let stale = names(&engine, &query);
            let writer = {
                let engine = Arc::clone(&engine);
                let view = part_view(&fx, "fresh", 60);
                mv_model::thread::spawn(move || {
                    engine.add_view(view).expect("racing registration succeeds");
                })
            };
            writer.join().expect("writer joins");
            let got = names(&engine, &query);
            assert_ne!(got, stale, "registration must invalidate the cached result");
            assert!(got.contains("fresh"), "new view must appear once quiescent");
        },
    );
}

/// Mutation 3: cache entries are stamped from the *currently published*
/// snapshot at insert time instead of the pinned snapshot the results
/// were computed from — a concurrent publication between pin and insert
/// makes a pre-registration entry look fresh forever.
#[test]
fn stamp_after_publish_freezes_a_stale_entry() {
    let fx = fixture();
    let query = part_query(&fx);
    pin(mutation::STAMP_AFTER_PUBLISH, "stamp-after-publish", || {
        let engine = engine(&fx, 16);
        engine
            .add_view(part_view(&fx, "old", 100))
            .expect("base view registers");
        let writer = {
            let engine = Arc::clone(&engine);
            let view = part_view(&fx, "fresh", 60);
            mv_model::thread::spawn(move || {
                engine.add_view(view).expect("racing registration succeeds");
            })
        };
        let matcher = {
            let engine = Arc::clone(&engine);
            let query = query.clone();
            mv_model::thread::spawn(move || {
                // Populate the cache while the registration may be mid-flight.
                engine.find_substitutes(&query);
            })
        };
        writer.join().expect("writer joins");
        matcher.join().expect("matcher joins");
        let got = names(&engine, &query);
        assert!(
            got.contains("fresh"),
            "quiescent result {got:?} is missing the registered view"
        );
    });
}

/// Mutation 4: `remove_view` publishes without bumping the removed view's
/// table epochs, so a stale cache entry keeps serving the dropped view.
#[test]
fn skip_epoch_bump_on_remove_serves_dropped_view() {
    let fx = fixture();
    let query = part_query(&fx);
    pin(
        mutation::SKIP_EPOCH_BUMP_ON_REMOVE,
        "skip-epoch-bump-on-remove",
        || {
            let engine = engine(&fx, 16);
            engine
                .add_view(part_view(&fx, "keeper", 100))
                .expect("keeper registers");
            let doomed = engine
                .add_view(part_view(&fx, "doomed", 60))
                .expect("doomed view registers");
            let cached = names(&engine, &query);
            assert!(
                cached.contains("doomed"),
                "cache warmed with the doomed view"
            );
            let writer = {
                let engine = Arc::clone(&engine);
                mv_model::thread::spawn(move || {
                    assert!(engine.remove_view(doomed), "doomed view is live");
                })
            };
            writer.join().expect("writer joins");
            let got = names(&engine, &query);
            assert!(
                !got.contains("doomed"),
                "removed view still served from the cache: {got:?}"
            );
        },
    );
}

/// Mutation 5: the cache-miss counter is dropped, breaking the exact
/// quiescent invariant `cache_hits + cache_misses == invocations`.
#[test]
fn skip_cache_miss_stat_unbalances_the_counters() {
    let fx = fixture();
    let query = part_query(&fx);
    pin(
        mutation::SKIP_CACHE_MISS_STAT,
        "skip-cache-miss-stat",
        || {
            let engine = engine(&fx, 16);
            engine
                .add_view(part_view(&fx, "old", 100))
                .expect("base view registers");
            let matcher = {
                let engine = Arc::clone(&engine);
                let query = query.clone();
                mv_model::thread::spawn(move || {
                    engine.find_substitutes(&query);
                })
            };
            matcher.join().expect("matcher joins");
            let stats = engine.stats();
            assert_eq!(
                stats.cache_hits + stats.cache_misses,
                stats.invocations,
                "every invocation is exactly one cache hit or miss"
            );
        },
    );
}

/// Mutation 6: `insert_plan` re-reads the stamp from the currently
/// published snapshot instead of using the ticket's, read before the
/// search — an `add_view` between probe and insert makes a plan searched
/// without the new view look fresh forever.
#[test]
fn plan_stamp_at_insert_freezes_a_stale_plan() {
    let fx = fixture();
    let query = part_query(&fx);
    pin(
        mutation::PLAN_STAMP_AT_INSERT,
        "plan-stamp-at-insert",
        || plan_race(&fx, &query),
    );
}

/// With no mutation active the same race programs pass clean — the
/// failures above come from the seeded weakenings, not the checker.
#[test]
fn unmutated_programs_pass() {
    let _guard = serial();
    mutation::set(mutation::NONE);
    let fx = fixture();
    let query = part_query(&fx);
    let report = explore(&cfg(), || {
        let engine = engine(&fx, 16);
        engine
            .add_view(part_view(&fx, "old", 100))
            .expect("base view registers");
        let stale = names(&engine, &query);
        let writer = {
            let engine = Arc::clone(&engine);
            let view = part_view(&fx, "fresh", 60);
            mv_model::thread::spawn(move || {
                engine.add_view(view).expect("racing registration succeeds");
            })
        };
        let matcher = {
            let engine = Arc::clone(&engine);
            let query = query.clone();
            mv_model::thread::spawn(move || {
                engine.find_substitutes(&query);
            })
        };
        writer.join().expect("writer joins");
        matcher.join().expect("matcher joins");
        let got = names(&engine, &query);
        assert_ne!(got, stale, "registration invalidates the cached result");
        assert!(got.contains("fresh"));
        let stats = engine.stats();
        assert_eq!(stats.cache_hits + stats.cache_misses, stats.invocations);
    });
    report.assert_pass("unmutated add/match race");
    explore(&cfg(), || plan_race(&fx, &query)).assert_pass("unmutated add/plan race");
}
