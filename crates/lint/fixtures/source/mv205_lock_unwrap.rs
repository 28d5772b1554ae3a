//! MV205 fixture: lock results unwrapped in non-test code. One panicking
//! holder poisons the lock; every later `.unwrap()` converts that single
//! panic into a process-wide cascade. `mv_core::sync::lock_or_recover`
//! (and the read/write variants) takes the data instead — counters and
//! caches stay usable because every writer publishes complete values.

use mv_core::sync::{Mutex, RwLock};

pub fn drain(q: &Mutex<Vec<u64>>) -> Vec<u64> {
    std::mem::take(&mut *q.lock().unwrap())
}

pub fn peek(r: &RwLock<u64>) -> u64 {
    *r.read().unwrap()
}

pub fn set(r: &RwLock<u64>, v: u64) {
    *r.write().unwrap() = v;
}
