//! Concurrent hammer over [`AtomicMatchStats`]: many writer threads
//! record invocations, cache probes, and registrations while a reader
//! snapshots continuously. Checks the two properties the engine's
//! quiescent invariants rely on:
//!
//! * **per-counter monotonicity** — every counter in every snapshot is
//!   at least the same counter in the previous snapshot (each counter
//!   is a single atomic, so its modification order is total even
//!   though the stats use relaxed ordering), and
//! * **exact quiescent totals** — after all writers join, every counter
//!   equals the arithmetic sum of what was recorded; nothing is lost or
//!   double-counted, and `cache_hits + cache_misses == invocations`.

use mv_core::stats::{AtomicMatchStats, MatchStats};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Counter-by-counter monotonicity between successive snapshots.
fn regressed(prev: &MatchStats, cur: &MatchStats) -> Option<String> {
    let pairs: [(&str, u64, u64); 11] = [
        ("invocations", prev.invocations, cur.invocations),
        ("candidates", prev.candidates, cur.candidates),
        ("core_states", prev.core_states, cur.core_states),
        (
            "range_prefiltered",
            prev.range_prefiltered,
            cur.range_prefiltered,
        ),
        ("views_available", prev.views_available, cur.views_available),
        ("substitutes", prev.substitutes, cur.substitutes),
        ("cache_hits", prev.cache_hits, cur.cache_hits),
        ("cache_misses", prev.cache_misses, cur.cache_misses),
        (
            "cache_invalidations",
            prev.cache_invalidations,
            cur.cache_invalidations,
        ),
        ("registrations", prev.registrations, cur.registrations),
        ("removals", prev.removals, cur.removals),
    ];
    for (name, p, c) in pairs {
        if c < p {
            return Some(format!("{name} went backwards: {p} -> {c}"));
        }
    }
    if cur.filter_time < prev.filter_time {
        return Some("filter_time went backwards".to_string());
    }
    if cur.match_time < prev.match_time {
        return Some("match_time went backwards".to_string());
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn hammered_counters_stay_monotone_and_exact(
        threads in 2usize..6,
        ops in 50usize..300,
    ) {
        let stats = AtomicMatchStats::default();
        let stop = AtomicBool::new(false);
        let violation: Mutex<Option<String>> = Mutex::new(None);

        std::thread::scope(|scope| {
            // Reader: snapshot continuously, checking monotonicity.
            scope.spawn(|| {
                let mut prev = stats.snapshot();
                let mut reads = 0u64;
                while !stop.load(Ordering::SeqCst) || reads == 0 {
                    let cur = stats.snapshot();
                    if let Some(msg) = regressed(&prev, &cur) {
                        *violation.lock().unwrap() = Some(msg);
                        return;
                    }
                    prev = cur;
                    reads += 1;
                }
            });
            let writers: Vec<_> = (0..threads)
                .map(|t| {
                    let stats = &stats;
                    scope.spawn(move || {
                        for j in 0..ops {
                            if (t + j) % 3 == 0 {
                                // A miss computes: its candidate loop
                                // reports the core states it built and
                                // the candidates its range test rejected.
                                stats.record_cache_miss();
                                stats.record_core_states(j % 5);
                                stats.record_range_prefiltered(j % 3);
                            } else {
                                stats.record_cache_hit();
                            }
                            stats.record(
                                2,
                                10,
                                (t + j) % 2,
                                Duration::from_nanos(10),
                                Duration::from_nanos(20),
                            );
                            if j % 7 == 0 {
                                stats.record_cache_invalidation();
                            }
                            if j % 11 == 0 {
                                stats.record_registrations(1);
                            }
                            if j % 13 == 0 {
                                stats.record_removal();
                            }
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().expect("writer thread panicked");
            }
            // Only once every writer has joined does the reader stand
            // down, so snapshots overlap the full write storm.
            stop.store(true, Ordering::SeqCst);
        });

        prop_assert!(
            violation.lock().unwrap().is_none(),
            "snapshot monotonicity violated: {:?}",
            violation.lock().unwrap()
        );

        // Exact quiescent totals.
        let total = (threads * ops) as u64;
        let expected_misses: u64 = (0..threads)
            .map(|t| (0..ops).filter(|j| (t + j) % 3 == 0).count() as u64)
            .sum();
        let expected_core_states: u64 = (0..threads)
            .map(|t| (0..ops).filter(|j| (t + j) % 3 == 0).map(|j| (j % 5) as u64).sum::<u64>())
            .sum();
        let expected_prefiltered: u64 = (0..threads)
            .map(|t| (0..ops).filter(|j| (t + j) % 3 == 0).map(|j| (j % 3) as u64).sum::<u64>())
            .sum();
        let expected_subs: u64 = (0..threads)
            .map(|t| (0..ops).map(|j| ((t + j) % 2) as u64).sum::<u64>())
            .sum();
        let per_thread = |m: usize| (0..ops).filter(|j| j % m == 0).count() as u64;
        let s = stats.snapshot();
        prop_assert_eq!(s.invocations, total);
        prop_assert_eq!(s.candidates, 2 * total);
        prop_assert_eq!(s.core_states, expected_core_states);
        prop_assert_eq!(s.range_prefiltered, expected_prefiltered);
        prop_assert_eq!(s.views_available, 10 * total);
        prop_assert_eq!(s.substitutes, expected_subs);
        prop_assert_eq!(s.cache_hits + s.cache_misses, s.invocations);
        prop_assert_eq!(s.cache_misses, expected_misses);
        prop_assert_eq!(s.cache_invalidations, threads as u64 * per_thread(7));
        prop_assert_eq!(s.registrations, threads as u64 * per_thread(11));
        prop_assert_eq!(s.removals, threads as u64 * per_thread(13));
        prop_assert_eq!(s.filter_time, Duration::from_nanos(10) * total as u32);
        prop_assert_eq!(s.match_time, Duration::from_nanos(20) * total as u32);
    }
}
