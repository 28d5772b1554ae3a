//! Instrumentation counters for the view-matching rule.
//!
//! Section 5 of the paper reports, besides wall-clock optimization time:
//! the fraction of views surviving the filter tree (< 0.4 % on their
//! workload), the fraction of candidates that produce substitutes (15-20 %),
//! substitutes per invocation, and invocations per query. These counters
//! let the benchmark harness reproduce every one of those numbers.

use mv_parallel::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters accumulated by a [`crate::MatchingEngine`].
#[derive(Debug, Default, Clone)]
pub struct MatchStats {
    /// Number of invocations of the view-matching rule (i.e. calls to
    /// `find_substitutes` on an acceptable expression).
    pub invocations: u64,
    /// Total candidate views that survived filtering, summed over
    /// invocations.
    pub candidates: u64,
    /// Join-core match states built, summed over invocations: the
    /// candidates of one invocation that share a FROM list and equijoin
    /// classes share one (DESIGN.md §13.5), so `candidates / core_states`
    /// is how many views paid for one §3.2 elimination. Counts work done —
    /// an invocation answered from the substitute cache builds states only
    /// for the views its cached verdict kept.
    pub core_states: u64,
    /// Total views registered at the time of each invocation, summed over
    /// invocations (denominator for the candidate fraction).
    pub views_available: u64,
    /// Candidate views that passed the full tests and produced a
    /// substitute.
    pub substitutes: u64,
    /// Time spent searching the filter tree.
    pub filter_time: Duration,
    /// Total time spent inside the view-matching rule (filtering plus
    /// checking plus substitute construction).
    pub match_time: Duration,
    /// `find_substitutes` calls answered from the substitute cache.
    pub cache_hits: u64,
    /// `find_substitutes` calls that probed an enabled cache and had to
    /// compute (includes stale hits, which recompute too).
    pub cache_misses: u64,
    /// Cached entries discarded because a table epoch moved past them (a
    /// view or constraint over some table they touch was added or removed
    /// since they were stored).
    pub cache_invalidations: u64,
    /// Substitute-cache entries evicted to make room: a full stripe drops
    /// its cheapest-to-recompute entry (GreedyDual, DESIGN.md §11.1).
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

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &MatchStats) {
        self.invocations += other.invocations;
        self.candidates += other.candidates;
        self.core_states += other.core_states;
        self.views_available += other.views_available;
        self.substitutes += other.substitutes;
        self.filter_time += other.filter_time;
        self.match_time += other.match_time;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_invalidations += other.cache_invalidations;
        self.cache_evictions += other.cache_evictions;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.plan_cache_invalidations += other.plan_cache_invalidations;
        self.registrations += other.registrations;
        self.removals += other.removals;
    }
}

/// Lock-free accumulator behind [`crate::MatchingEngine`]'s shared-state
/// counters. Every field is a relaxed [`AtomicU64`] (durations in
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
    invocations: AtomicU64,
    candidates: AtomicU64,
    core_states: AtomicU64,
    views_available: AtomicU64,
    substitutes: AtomicU64,
    filter_nanos: AtomicU64,
    match_nanos: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_invalidations: AtomicU64,
    cache_evictions: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    plan_cache_invalidations: AtomicU64,
    registrations: AtomicU64,
    removals: AtomicU64,
}

impl AtomicMatchStats {
    /// Record one `find_substitutes` invocation.
    pub fn record(
        &self,
        candidates: usize,
        views_available: usize,
        substitutes: usize,
        filter_time: Duration,
        match_time: Duration,
    ) {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.candidates
            .fetch_add(candidates as u64, Ordering::Relaxed);
        self.views_available
            .fetch_add(views_available as u64, Ordering::Relaxed);
        self.substitutes
            .fetch_add(substitutes as u64, Ordering::Relaxed);
        self.filter_nanos
            .fetch_add(filter_time.as_nanos() as u64, Ordering::Relaxed);
        self.match_nanos
            .fetch_add(match_time.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record the join-core states one invocation's candidate loop built.
    pub fn record_core_states(&self, n: usize) {
        self.core_states.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Record a substitute-cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a substitute-cache miss (probed, had to compute).
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a stale cached entry discarded by epoch invalidation.
    pub fn record_cache_invalidation(&self) {
        self.cache_invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a substitute-cache entry evicted for room.
    pub fn record_cache_eviction(&self) {
        self.cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a plan-cache hit.
    pub fn record_plan_cache_hit(&self) {
        self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a plan-cache miss (probed, had to search).
    pub fn record_plan_cache_miss(&self) {
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a stale cached plan discarded by epoch invalidation.
    pub fn record_plan_cache_invalidation(&self) {
        self.plan_cache_invalidations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` view registrations.
    pub fn record_registrations(&self, n: usize) {
        self.registrations.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Record one view removal.
    pub fn record_removal(&self) {
        self.removals.fetch_add(1, Ordering::Relaxed);
    }

    /// Materialize the counters as a plain [`MatchStats`] value.
    pub fn snapshot(&self) -> MatchStats {
        MatchStats {
            invocations: self.invocations.load(Ordering::Relaxed),
            candidates: self.candidates.load(Ordering::Relaxed),
            core_states: self.core_states.load(Ordering::Relaxed),
            views_available: self.views_available.load(Ordering::Relaxed),
            substitutes: self.substitutes.load(Ordering::Relaxed),
            filter_time: Duration::from_nanos(self.filter_nanos.load(Ordering::Relaxed)),
            match_time: Duration::from_nanos(self.match_nanos.load(Ordering::Relaxed)),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_invalidations: self.cache_invalidations.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            plan_cache_invalidations: self.plan_cache_invalidations.load(Ordering::Relaxed),
            registrations: self.registrations.load(Ordering::Relaxed),
            removals: self.removals.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter.
    pub fn reset(&self) {
        self.invocations.store(0, Ordering::Relaxed);
        self.candidates.store(0, Ordering::Relaxed);
        self.core_states.store(0, Ordering::Relaxed);
        self.views_available.store(0, Ordering::Relaxed);
        self.substitutes.store(0, Ordering::Relaxed);
        self.filter_nanos.store(0, Ordering::Relaxed);
        self.match_nanos.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.cache_invalidations.store(0, Ordering::Relaxed);
        self.cache_evictions.store(0, Ordering::Relaxed);
        self.plan_cache_hits.store(0, Ordering::Relaxed);
        self.plan_cache_misses.store(0, Ordering::Relaxed);
        self.plan_cache_invalidations.store(0, Ordering::Relaxed);
        self.registrations.store(0, Ordering::Relaxed);
        self.removals.store(0, Ordering::Relaxed);
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
    fn merge_accumulates() {
        let mut a = MatchStats {
            invocations: 1,
            candidates: 2,
            core_states: 12,
            views_available: 3,
            substitutes: 4,
            filter_time: Duration::from_millis(5),
            match_time: Duration::from_millis(6),
            cache_hits: 7,
            cache_misses: 8,
            cache_invalidations: 9,
            cache_evictions: 16,
            plan_cache_hits: 13,
            plan_cache_misses: 14,
            plan_cache_invalidations: 15,
            registrations: 10,
            removals: 11,
        };
        a.merge(&a.clone());
        assert_eq!(a.invocations, 2);
        assert_eq!(a.candidates, 4);
        assert_eq!(a.core_states, 24);
        assert_eq!(a.views_available, 6);
        assert_eq!(a.substitutes, 8);
        assert_eq!(a.filter_time, Duration::from_millis(10));
        assert_eq!(a.cache_hits, 14);
        assert_eq!(a.cache_misses, 16);
        assert_eq!(a.cache_invalidations, 18);
        assert_eq!(a.cache_evictions, 32);
        assert_eq!(a.plan_cache_hits, 26);
        assert_eq!(a.plan_cache_misses, 28);
        assert_eq!(a.plan_cache_invalidations, 30);
        assert_eq!(a.registrations, 20);
        assert_eq!(a.removals, 22);
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
        let s = a.snapshot();
        assert_eq!(s.core_states, 2);
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
        assert_eq!(z.cache_hits, 0);
        assert_eq!(z.cache_misses, 0);
        assert_eq!(z.cache_invalidations, 0);
        assert_eq!(z.cache_evictions, 0);
        assert_eq!(z.plan_cache_hits + z.plan_cache_misses, 0);
    }
}
