//! Fork-join fan-out over slices built on `std::thread::scope`.
//!
//! `mv-prove`'s enumeration, the one caller, needs exactly one parallel
//! shape: map a pure function over a slice of work items and collect the
//! results **in input order**. `rayon` would provide this as
//! `par_iter().map()`, but the build container cannot fetch external
//! crates, so this crate implements the same contract on the standard
//! library alone:
//!
//! * deterministic output order (result `i` comes from item `i`),
//! * dynamic load balancing (workers claim chunks from a shared atomic
//!   cursor, so a few expensive items don't idle the other workers),
//! * zero unsafe code (each worker returns `(chunk index, results)`
//!   pairs that are reassembled after the join).
//!
//! Threads are spawned per call. The caller fans out chunks of enumerated
//! databases, where per-item work dominates the ~10 µs thread spawn cost.
//! Nothing fans out from inside a worker (the matching engine never calls
//! `par_map`: clients match from their own threads), so there is no
//! nesting to guard against.
//!
//! The crate is also the home of the [`sync`] facade and of [`Published`],
//! which the engine publishes its catalog snapshots through.

pub mod sync;

use std::num::NonZeroUsize;
// The fan-out cursor is a plain counter in the facade's home crate
// itself. mv-lint: allow(MV201)
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use sync::RwLock;

/// The machine's available parallelism, probed once and cached.
/// `std::thread::available_parallelism` re-reads the cgroup/affinity state
/// on every call, which is far too slow for a per-query decision.
pub fn effective_parallelism() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Number of workers to use for `hint` work items: the machine's
/// available parallelism (cached), but never more workers than items.
pub fn workers_for(hint: usize) -> usize {
    effective_parallelism().min(hint).max(1)
}

/// An atomically publishable shared pointer — the `arc-swap` shape on
/// std alone. Readers `load` a pinned `Arc` snapshot (two atomic ops under
/// an uncontended read lock); writers build a complete replacement value
/// and `store` it, never blocking readers for longer than the pointer
/// swap. The engine publishes its catalog snapshots through this.
#[derive(Debug)]
pub struct Published<T> {
    inner: RwLock<std::sync::Arc<T>>,
}

impl<T> Published<T> {
    /// Wrap an initial value.
    pub fn new(value: T) -> Published<T> {
        Published {
            inner: RwLock::new(std::sync::Arc::new(value)),
        }
    }

    /// Pin the current value. The returned `Arc` stays coherent however
    /// many `store`s happen afterwards.
    pub fn load(&self) -> std::sync::Arc<T> {
        sync::read_or_recover(&self.inner).clone()
    }

    /// Atomically publish a replacement value. Readers that already hold
    /// a pinned `Arc` keep it; new `load`s see the replacement.
    pub fn store(&self, value: std::sync::Arc<T>) {
        *sync::write_or_recover(&self.inner) = value;
    }
}

/// Map `f` over `items` on up to `workers` threads, returning results in
/// input order. Falls back to a serial loop when `workers <= 1` or the
/// input is tiny, so callers can invoke it unconditionally.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    // Under the model checker, fan-outs run serially: scoped worker
    // threads cannot be routed through the cooperative scheduler, and
    // the fan-out body is pure, so serial execution is observationally
    // equivalent for the protocol being checked.
    if workers <= 1 || items.len() <= 1 || cfg!(mv_model) {
        return items.iter().map(f).collect();
    }

    // Chunks are finer than the worker count so a skewed item cannot
    // serialize the tail: aim for ~4 chunks per worker.
    let chunk = (items.len() / (workers * 4)).max(1);
    let n_chunks = items.len().div_ceil(chunk);
    let cursor = AtomicUsize::new(0);

    let mut per_chunk: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        // Pure work distribution: the claimed index is the
                        // only communication. mv-lint: allow(MV202)
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let lo = c * chunk;
                        let hi = (lo + chunk).min(items.len());
                        mine.push((c, items[lo..hi].iter().map(&f).collect()));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    per_chunk.sort_by_key(|&(c, _)| c);
    let mut out = Vec::with_capacity(items.len());
    for (_, mut rs) in per_chunk {
        out.append(&mut rs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for workers in [1, 2, 4, 7] {
            let out = par_map(&items, workers, |&x| x * 3);
            assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_edge_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map(&[42], 8, |&x| x + 1), vec![43]);
        assert_eq!(par_map(&[1, 2], 64, |&x| x), vec![1, 2]);
    }

    #[test]
    fn skewed_work_still_ordered() {
        // Early items are much slower: exercises chunk stealing.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, 8, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn workers_for_is_bounded() {
        assert_eq!(workers_for(0), 1);
        assert!(workers_for(1000) >= 1);
        assert!(workers_for(2) <= 2);
        assert_eq!(workers_for(1000), effective_parallelism().min(1000));
    }

    #[test]
    fn recover_helpers_survive_poisoning() {
        let m = sync::Mutex::new(7u64);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock();
            panic!("poison it");
        }));
        assert_eq!(*sync::lock_or_recover(&m), 7, "mutex value recovered");

        let l = sync::RwLock::new(9u64);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = l.write();
            panic!("poison it");
        }));
        assert_eq!(*sync::read_or_recover(&l), 9);
        *sync::write_or_recover(&l) = 10;
        assert_eq!(*sync::read_or_recover(&l), 10);
    }

    #[test]
    fn published_pointer_swaps_atomically() {
        let p = Published::new(vec![1, 2, 3]);
        let pinned = p.load();
        p.store(std::sync::Arc::new(vec![9]));
        assert_eq!(*pinned, vec![1, 2, 3], "pinned snapshot stays coherent");
        assert_eq!(*p.load(), vec![9]);

        // Concurrent readers always observe one of the published values.
        let p = std::sync::Arc::new(Published::new(0u64));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let p = std::sync::Arc::clone(&p);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        let v = *p.load();
                        assert!(v <= 1000);
                    }
                });
            }
            for i in 1..=1000 {
                p.store(std::sync::Arc::new(i));
            }
        });
        assert_eq!(*p.load(), 1000);
    }
}
