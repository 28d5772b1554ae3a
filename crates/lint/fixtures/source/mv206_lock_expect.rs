//! MV206 fixture: lock results `.expect()`ed in non-test code. The
//! message only renames the poisoning cascade MV205 flags — once one
//! holder panics, every later `.expect(…)` still takes the whole process
//! down, just with nicer last words. `mv_core::sync::lock_or_recover`
//! (and the read/write variants) recovers the data instead.

use mv_core::sync::{Mutex, RwLock};

pub fn drain(q: &Mutex<Vec<u64>>) -> Vec<u64> {
    std::mem::take(&mut *q.lock().expect("queue lock poisoned"))
}

pub fn peek(r: &RwLock<u64>) -> u64 {
    *r.read().expect("stats lock poisoned")
}

pub fn set(r: &RwLock<u64>, v: u64) {
    *r.write().expect("stats lock poisoned") = v;
}
