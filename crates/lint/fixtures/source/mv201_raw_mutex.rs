//! MV201 fixture: a raw `std::sync` primitive smuggled in outside the
//! `mv_core::sync` facade. The schedule explorer cannot see this
//! mutex, so no interleaving through it is ever model-checked.

use std::sync::Mutex;

pub struct SneakyCache {
    slots: std::sync::RwLock<Vec<u64>>,
    epoch: std::sync::atomic::AtomicU64,
    guard: Mutex<()>,
}

pub fn bump(c: &SneakyCache) {
    let _g = c.guard.lock();
    c.epoch
        .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let _ = c.slots.read();
}
