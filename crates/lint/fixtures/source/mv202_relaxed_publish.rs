//! MV202 fixture: publication flag set with `Ordering::Relaxed`. A
//! relaxed store orders nothing before it, so a reader that observes the
//! flag may still read the unpublished payload — the exact bug the model
//! crate pins in `relaxed_publication_is_pinned_to_a_failing_schedule`.

use mv_core::sync::atomic::{AtomicU64, Ordering};

pub fn publish(data: &AtomicU64, ready: &AtomicU64) {
    data.store(42, Ordering::Relaxed);
    ready.store(1, Ordering::Relaxed);
}

pub fn consume(data: &AtomicU64, ready: &AtomicU64) -> Option<u64> {
    if ready.load(Ordering::Relaxed) == 1 {
        Some(data.load(Ordering::Relaxed))
    } else {
        None
    }
}
