//! Query-result caching via view matching — the introduction's scenario:
//! "A smart system might also cache and reuse results of previously
//! computed queries. Cached results can be treated as temporary
//! materialized views, easily resulting in thousands of materialized
//! views."
//!
//! This example runs a stream of related analytical queries. After
//! executing each query the engine registers its expression as a temporary
//! view holding the cached result; later queries that are subsumed by an
//! earlier one are answered from the cache instead of base tables.
//!
//! ```text
//! cargo run --release --example query_cache
//! ```

use matview::prelude::*;
use std::time::Instant;

fn main() {
    let (db, _) = generate_tpch(&TpchScale::small(), 99);
    let catalog = db.catalog.clone();
    let engine = MatchingEngine::new(catalog.clone(), MatchConfig::default());
    let mut cache: Vec<(ViewId, Vec<Vec<Value>>)> = Vec::new();

    // A drill-down session: each query narrows the previous one.
    let stream = [
        // Broad scan: becomes the cache entry everything else hits.
        "SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipdate \
         FROM lineitem WHERE l_shipdate >= DATE '1994-01-01'",
        // Narrower date window: subsumed by the first.
        "SELECT l_orderkey, l_quantity FROM lineitem \
         WHERE l_shipdate >= DATE '1996-01-01'",
        // Same window plus a quantity filter: still subsumed.
        "SELECT l_orderkey FROM lineitem \
         WHERE l_shipdate >= DATE '1996-01-01' AND l_quantity BETWEEN 10 AND 20",
        // Aggregation over the cached rows.
        "SELECT l_partkey, COUNT_BIG(*) AS cnt, SUM(l_quantity) AS qty \
         FROM lineitem WHERE l_shipdate >= DATE '1995-06-01' \
         GROUP BY l_partkey",
        // Outside the cached window: must miss.
        "SELECT l_orderkey FROM lineitem WHERE l_shipdate < DATE '1993-01-01'",
    ];

    for (i, sql) in stream.iter().enumerate() {
        let query = parse_query(sql, &catalog).expect("query SQL");

        // Try the cache first.
        let hits = engine.find_substitutes(&query);
        let (rows, how, elapsed) = if let Some((view_id, substitute)) = hits.first() {
            let cached = &cache.iter().find(|(id, _)| id == view_id).unwrap().1;
            let t = Instant::now();
            let rows = execute_substitute_with(&db, cached, substitute);
            (rows, format!("cache hit on q{}", view_id.0), t.elapsed())
        } else {
            let t = Instant::now();
            let rows = execute_spjg(&db, &query);
            (
                rows,
                "cache miss — executed from base tables".into(),
                t.elapsed(),
            )
        };
        println!("q{i}: {} rows in {:?} ({how})", rows.len(), elapsed);

        // Verify cached answers against the ground truth.
        let direct = execute_spjg(&db, &query);
        assert!(bag_eq(&rows, &direct), "cache returned wrong rows for q{i}");

        // Install this query's result as a temporary materialized view so
        // later queries can reuse it. (SPJ results only: an indexed view
        // needs a key; aggregation results would also qualify with their
        // grouping key, shown for q3.)
        let view = ViewDef::new(format!("q{i}"), query);
        if view.check_indexable().is_ok() {
            let rows_for_cache = direct;
            if let Ok(id) = engine.add_view(view) {
                cache.push((id, rows_for_cache));
            }
        }
    }

    println!("\ncached results registered as views: {}", cache.len());
    let stats = engine.stats();
    println!(
        "matching-rule invocations: {}, substitutes produced: {}",
        stats.invocations, stats.substitutes
    );

    // Eviction: drop the big q0 entry; the next repeat of q1 misses.
    let (q0_id, _) = cache[0];
    engine.remove_view(q0_id);
    let q1 = parse_query(stream[1], &catalog).unwrap();
    let hits = engine.find_substitutes(&q1);
    // q1's own cached result still answers it, but q0 no longer appears.
    assert!(hits.iter().all(|(id, _)| *id != q0_id));
    println!(
        "after evicting q0: {} live cache entries, q1 answered by {:?}",
        engine.live_view_count(),
        hits.first().map(|(id, _)| *id)
    );

    // The engine's own two caches, seen through the optimizer: replay the
    // stream twice. The first round searches every plan, firing the
    // view-matching rule on each connected subset (answered from the
    // substitute cache when a subset was matched before); the second
    // round is served whole from the plan cache, without a search.
    let mut store = ViewStore::new();
    for (id, rows) in &cache {
        store.put(*id, rows.clone());
    }
    engine.reset_stats();
    let optimizer = Optimizer::new(&engine, OptimizerConfig::default());
    for _round in 0..2 {
        for sql in &stream {
            let query = parse_query(sql, &catalog).expect("query SQL");
            let plan = optimizer.optimize(&query).plan;
            let rows = execute_plan(&db, &store, &plan);
            assert!(bag_eq(&rows, &execute_spjg(&db, &query)), "wrong rows");
        }
    }
    let stats = engine.stats();
    println!(
        "optimizer replay, 2 x {} queries: plan cache {} hits / {} misses ({:.0} % hit rate), \
         substitute cache {} hits / {} misses ({:.0} % hit rate)",
        stream.len(),
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        100.0 * stats.plan_cache_hit_rate(),
        stats.cache_hits,
        stats.cache_misses,
        100.0 * stats.cache_hit_rate(),
    );
}
