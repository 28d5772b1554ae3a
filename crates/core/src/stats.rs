//! Instrumentation counters for the view-matching rule.
//!
//! Section 5 of the paper reports, besides wall-clock optimization time:
//! the fraction of views surviving the filter tree (< 0.4 % on their
//! workload), the fraction of candidates that produce substitutes (15-20 %),
//! substitutes per invocation, and invocations per query. These counters
//! let the benchmark harness reproduce every one of those numbers.

use crate::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters accumulated by a [`crate::MatchingEngine`].
#[derive(Debug, Default, Clone)]
pub struct MatchStats {
    /// Number of invocations of the view-matching rule (i.e. calls to
    /// `find_verdicts`, or `find_substitutes` through it, on an
    /// acceptable expression).
    pub invocations: u64,
    /// Total candidate views that survived filtering, summed over
    /// invocations.
    pub candidates: u64,
    /// Join-core match states built, summed over invocations: the
    /// candidates of one invocation that share a FROM list and equijoin
    /// classes share one (DESIGN.md §13.5), so `candidates / core_states`
    /// is how many views paid for one §3.2 elimination. Counts the work
    /// of the search: a substitute-cache hit runs no full test and builds
    /// none, and building substitutes (`find_substitutes` past its
    /// search, `build_substitute`) is not counted.
    pub core_states: u64,
    /// Candidates the early range test rejected, summed over invocations
    /// ([`crate::PreparedQuery::refutes_ranges`], DESIGN.md §13.7): the
    /// range subsumption test read through base columns, run before a
    /// candidate's join core is looked up, so such a candidate builds no
    /// core state. Every one of them fails the full tests too, so
    /// `range_prefiltered + substitutes <= candidates`. Counted where
    /// `core_states` is.
    pub range_prefiltered: u64,
    /// Total views registered at the time of each invocation, summed over
    /// invocations (denominator for the candidate fraction).
    pub views_available: u64,
    /// Candidate views that passed the full tests and produced a
    /// substitute.
    pub substitutes: u64,
    /// Time spent searching the filter tree.
    pub filter_time: Duration,
    /// Total time spent inside the view-matching rule (filtering plus
    /// checking; building a substitute is not counted).
    pub match_time: Duration,
    /// `find_verdicts` calls answered from the substitute cache.
    pub cache_hits: u64,
    /// `find_verdicts` calls that probed an enabled cache and had to
    /// compute (includes stale hits, which recompute too).
    pub cache_misses: u64,
    /// Cached entries discarded because a table epoch moved past them (a
    /// view or constraint over some table they touch was added or removed
    /// since they were stored).
    pub cache_invalidations: u64,
    /// Substitute-cache entries evicted: a full stripe drops its
    /// cheapest-to-recompute entry (GreedyDual, DESIGN.md §11.1), and an
    /// insert replaces another block's entry under the same hash.
    pub cache_evictions: u64,
    /// Whole-query plans served from the plan cache (DESIGN.md §11.4): an
    /// optimizer call answered this way invokes the matching rule zero
    /// times, so it shows in none of the counters above.
    pub plan_cache_hits: u64,
    /// Plan-cache probes that had to search (stale probes included).
    pub plan_cache_misses: u64,
    /// Cached plans discarded because a table epoch moved past them.
    pub plan_cache_invalidations: u64,
    /// Views registered (`add_view`/`add_views`) since the last reset.
    pub registrations: u64,
    /// Views dropped (`remove_view`) since the last reset.
    pub removals: u64,
}

impl MatchStats {
    /// Average fraction of views that survive the filter tree (the paper
    /// reports 0.29 % at 100 views and 0.36 % at 1000).
    pub fn candidate_fraction(&self) -> f64 {
        if self.views_available == 0 {
            0.0
        } else {
            self.candidates as f64 / self.views_available as f64
        }
    }

    /// Fraction of candidates that pass the detailed tests (the paper
    /// reports 15-20 %).
    pub fn pass_fraction(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.substitutes as f64 / self.candidates as f64
        }
    }

    /// Substitutes produced per invocation (0.04 at 100 views rising to
    /// 0.59 at 1000 in the paper).
    pub fn substitutes_per_invocation(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.substitutes as f64 / self.invocations as f64
        }
    }

    /// Fraction of cache probes answered from the cache
    /// (hits / (hits + misses)); 0 when the cache was never probed.
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }

    /// Fraction of plan-cache probes answered from the cache; 0 when it
    /// was never probed.
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let probes = self.plan_cache_hits + self.plan_cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / probes as f64
        }
    }
}

/// One slot of [`AtomicMatchStats`]'s counter array, one per
/// [`MatchStats`] field (durations as nanoseconds).
#[derive(Clone, Copy)]
enum Counter {
    Invocations,
    Candidates,
    CoreStates,
    RangePrefiltered,
    ViewsAvailable,
    Substitutes,
    FilterNanos,
    MatchNanos,
    CacheHits,
    CacheMisses,
    CacheInvalidations,
    CacheEvictions,
    PlanCacheHits,
    PlanCacheMisses,
    PlanCacheInvalidations,
    Registrations,
    Removals,
}

const COUNTERS: usize = Counter::Removals as usize + 1;

/// Lock-free accumulator behind [`crate::MatchingEngine`]'s shared-state
/// counters. Every counter is a relaxed [`AtomicU64`] (durations in
/// nanoseconds), so concurrent `find_substitutes` calls from many threads
/// record without contention and totals always add up exactly; a
/// [`MatchStats`] value is materialized on demand by [`snapshot`].
///
/// Relaxed ordering is sufficient: the counters are statistics, not
/// synchronization — no other memory access is ordered by them, and
/// per-counter totals are exact regardless of interleaving.
///
/// [`snapshot`]: AtomicMatchStats::snapshot
#[derive(Debug, Default)]
pub struct AtomicMatchStats {
    counters: [AtomicU64; COUNTERS],
}

impl AtomicMatchStats {
    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Record one `find_substitutes` invocation.
    pub fn record(
        &self,
        candidates: usize,
        views_available: usize,
        substitutes: usize,
        filter_time: Duration,
        match_time: Duration,
    ) {
        self.add(Counter::Invocations, 1);
        self.add(Counter::Candidates, candidates as u64);
        self.add(Counter::ViewsAvailable, views_available as u64);
        self.add(Counter::Substitutes, substitutes as u64);
        self.add(Counter::FilterNanos, filter_time.as_nanos() as u64);
        self.add(Counter::MatchNanos, match_time.as_nanos() as u64);
    }

    /// Record the join-core states one invocation's candidate loop built.
    pub fn record_core_states(&self, n: usize) {
        self.add(Counter::CoreStates, n as u64);
    }

    /// Record the candidates one invocation's early range test rejected.
    pub fn record_range_prefiltered(&self, n: usize) {
        self.add(Counter::RangePrefiltered, n as u64);
    }

    /// Record a substitute-cache hit.
    pub fn record_cache_hit(&self) {
        self.add(Counter::CacheHits, 1);
    }

    /// Record a substitute-cache miss (probed, had to compute).
    pub fn record_cache_miss(&self) {
        self.add(Counter::CacheMisses, 1);
    }

    /// Record a stale cached entry discarded by epoch invalidation.
    pub fn record_cache_invalidation(&self) {
        self.add(Counter::CacheInvalidations, 1);
    }

    /// Record a substitute-cache entry evicted or replaced.
    pub fn record_cache_eviction(&self) {
        self.add(Counter::CacheEvictions, 1);
    }

    /// Record a plan-cache hit.
    pub fn record_plan_cache_hit(&self) {
        self.add(Counter::PlanCacheHits, 1);
    }

    /// Record a plan-cache miss (probed, had to search).
    pub fn record_plan_cache_miss(&self) {
        self.add(Counter::PlanCacheMisses, 1);
    }

    /// Record a stale cached plan discarded by epoch invalidation.
    pub fn record_plan_cache_invalidation(&self) {
        self.add(Counter::PlanCacheInvalidations, 1);
    }

    /// Record `n` view registrations.
    pub fn record_registrations(&self, n: usize) {
        self.add(Counter::Registrations, n as u64);
    }

    /// Record one view removal.
    pub fn record_removal(&self) {
        self.add(Counter::Removals, 1);
    }

    /// Materialize the counters as a plain [`MatchStats`] value.
    pub fn snapshot(&self) -> MatchStats {
        let loaded = self.counters.each_ref().map(|c| c.load(Ordering::Relaxed));
        let get = |c: Counter| loaded[c as usize];
        MatchStats {
            invocations: get(Counter::Invocations),
            candidates: get(Counter::Candidates),
            core_states: get(Counter::CoreStates),
            range_prefiltered: get(Counter::RangePrefiltered),
            views_available: get(Counter::ViewsAvailable),
            substitutes: get(Counter::Substitutes),
            filter_time: Duration::from_nanos(get(Counter::FilterNanos)),
            match_time: Duration::from_nanos(get(Counter::MatchNanos)),
            cache_hits: get(Counter::CacheHits),
            cache_misses: get(Counter::CacheMisses),
            cache_invalidations: get(Counter::CacheInvalidations),
            cache_evictions: get(Counter::CacheEvictions),
            plan_cache_hits: get(Counter::PlanCacheHits),
            plan_cache_misses: get(Counter::PlanCacheMisses),
            plan_cache_invalidations: get(Counter::PlanCacheInvalidations),
            registrations: get(Counter::Registrations),
            removals: get(Counter::Removals),
        }
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions() {
        let s = MatchStats {
            invocations: 10,
            candidates: 40,
            views_available: 10_000,
            substitutes: 8,
            ..Default::default()
        };
        assert!((s.candidate_fraction() - 0.004).abs() < 1e-12);
        assert!((s.pass_fraction() - 0.2).abs() < 1e-12);
        assert!((s.substitutes_per_invocation() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators() {
        let s = MatchStats::default();
        assert_eq!(s.candidate_fraction(), 0.0);
        assert_eq!(s.pass_fraction(), 0.0);
        assert_eq!(s.substitutes_per_invocation(), 0.0);
    }

    #[test]
    fn atomic_record_and_snapshot_round_trip() {
        let a = AtomicMatchStats::default();
        a.record(
            3,
            100,
            1,
            Duration::from_micros(5),
            Duration::from_micros(9),
        );
        a.record(
            7,
            100,
            2,
            Duration::from_micros(1),
            Duration::from_micros(2),
        );
        let s = a.snapshot();
        assert_eq!(s.invocations, 2);
        assert_eq!(s.candidates, 10);
        assert_eq!(s.views_available, 200);
        assert_eq!(s.substitutes, 3);
        assert_eq!(s.filter_time, Duration::from_micros(6));
        assert_eq!(s.match_time, Duration::from_micros(11));
        a.reset();
        assert_eq!(a.snapshot().invocations, 0);
        assert_eq!(a.snapshot().match_time, Duration::ZERO);
    }

    #[test]
    fn atomic_totals_add_up_across_threads() {
        let a = AtomicMatchStats::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        a.record(2, 5, 1, Duration::from_nanos(10), Duration::from_nanos(20));
                    }
                });
            }
        });
        let s = a.snapshot();
        assert_eq!(s.invocations, 8000);
        assert_eq!(s.candidates, 16_000);
        assert_eq!(s.substitutes, 8000);
        assert_eq!(s.filter_time, Duration::from_nanos(80_000));
    }

    #[test]
    fn cache_counters_record_and_hit_rate() {
        let a = AtomicMatchStats::default();
        assert_eq!(a.snapshot().cache_hit_rate(), 0.0, "no probes yet");
        for _ in 0..3 {
            a.record_cache_hit();
        }
        a.record_cache_miss();
        a.record_cache_invalidation();
        a.record_cache_eviction();
        a.record_plan_cache_hit();
        a.record_plan_cache_miss();
        a.record_plan_cache_miss();
        a.record_plan_cache_invalidation();
        a.record_core_states(2);
        a.record_core_states(0);
        a.record_range_prefiltered(5);
        a.record_range_prefiltered(1);
        let s = a.snapshot();
        assert_eq!(s.core_states, 2);
        assert_eq!(s.range_prefiltered, 6);
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_invalidations, 1);
        assert_eq!(s.cache_evictions, 1);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.plan_cache_invalidations, 1);
        assert!((s.plan_cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.invocations, 0, "plan counters are their own");
        a.reset();
        let z = a.snapshot();
        assert_eq!(z.core_states, 0);
        assert_eq!(z.range_prefiltered, 0);
        assert_eq!(z.cache_hits, 0);
        assert_eq!(z.cache_misses, 0);
        assert_eq!(z.cache_invalidations, 0);
        assert_eq!(z.cache_evictions, 0);
        assert_eq!(z.plan_cache_hits + z.plan_cache_misses, 0);
    }
}
