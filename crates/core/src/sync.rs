//! The engine's synchronization facade, and [`Published`], the pointer
//! it publishes its catalog snapshots through.
//!
//! Engine code must name its sync primitives through this module rather
//! than `std::sync` directly (`mv-lint --source` rule MV201 enforces
//! this). In a normal build the re-exports *are* the std types — zero
//! cost. Under `--cfg mv_model` they swap for the `mv-model` shims, so
//! the model checker's cooperative scheduler sees every lock, publish,
//! and atomic the concurrency protocol performs.
//!
//! The `*_or_recover` helpers are the blessed way to acquire a lock in
//! non-test code: a matcher that panicked while holding a shard lock
//! poisons it, and the engine's locks only guard data that is replaced
//! wholesale (snapshot pointers) or rebuildable (cache entries), so
//! recovering the poisoned value is always safe — and much better than
//! cascading the panic into every later query (MV205 enforces this).

// mv-lint: allow(MV201)

use std::sync::PoisonError;

#[cfg(not(mv_model))]
pub use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(mv_model)]
pub use mv_model::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

pub use std::sync::Arc;

pub mod atomic {
    // mv-lint: allow(MV201)
    #[cfg(not(mv_model))]
    pub use std::sync::atomic::AtomicU64;

    #[cfg(mv_model)]
    pub use mv_model::atomic::AtomicU64;

    pub use std::sync::atomic::Ordering;
}

/// Acquire a mutex, recovering the inner value if a previous holder
/// panicked.
pub fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a read lock, recovering from poisoning.
pub fn read_or_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a write lock, recovering from poisoning.
pub fn write_or_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// An atomically publishable shared pointer — the `arc-swap` shape on
/// std alone. Readers `load` a pinned `Arc` snapshot (two atomic ops under
/// an uncontended read lock); writers build a complete replacement value
/// and `store` it, never blocking readers for longer than the pointer
/// swap.
#[derive(Debug)]
pub struct Published<T> {
    inner: RwLock<Arc<T>>,
}

impl<T> Published<T> {
    /// Wrap an initial value.
    pub fn new(value: T) -> Published<T> {
        Published {
            inner: RwLock::new(Arc::new(value)),
        }
    }

    /// Pin the current value. The returned `Arc` stays coherent however
    /// many `store`s happen afterwards.
    pub fn load(&self) -> Arc<T> {
        read_or_recover(&self.inner).clone()
    }

    /// Atomically publish a replacement value. Readers that already hold
    /// a pinned `Arc` keep it; new `load`s see the replacement.
    pub fn store(&self, value: Arc<T>) {
        *write_or_recover(&self.inner) = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recover_helpers_survive_poisoning() {
        let m = Mutex::new(7u64);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock();
            panic!("poison it");
        }));
        assert_eq!(*lock_or_recover(&m), 7, "mutex value recovered");

        let l = RwLock::new(9u64);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = l.write();
            panic!("poison it");
        }));
        assert_eq!(*read_or_recover(&l), 9);
        *write_or_recover(&l) = 10;
        assert_eq!(*read_or_recover(&l), 10);
    }

    #[test]
    fn published_pointer_swaps_atomically() {
        let p = Published::new(vec![1, 2, 3]);
        let pinned = p.load();
        p.store(Arc::new(vec![9]));
        assert_eq!(*pinned, vec![1, 2, 3], "pinned snapshot stays coherent");
        assert_eq!(*p.load(), vec![9]);

        // Concurrent readers always observe one of the published values.
        let p = Arc::new(Published::new(0u64));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let p = Arc::clone(&p);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        let v = *p.load();
                        assert!(v <= 1000);
                    }
                });
            }
            for i in 1..=1000 {
                p.store(Arc::new(i));
            }
        });
        assert_eq!(*p.load(), 1000);
    }
}
