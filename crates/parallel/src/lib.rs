//! The workspace's synchronization home: the [`sync`] facade every
//! engine crate imports its locks and atomics through (so that
//! `--cfg mv_model` can swap in the model checker's primitives — MV201),
//! and [`Published`], which the engine publishes its catalog snapshots
//! through.
//!
//! There is no fork-join here: parallelism in this workspace is client
//! threads sharing one `MatchingEngine` (DESIGN.md §8 has the fan-outs
//! that were measured and deleted). The crate keeps its name because the
//! MV201–MV206 messages and fixtures cite `mv_parallel::sync`.

pub mod sync;

use sync::RwLock;

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

#[cfg(test)]
mod tests {
    use super::*;

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
