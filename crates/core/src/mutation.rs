//! Seeded concurrency mutations for the model-checker corruption suite.
//!
//! Compiled only under `--cfg mv_model`. Each mutation weakens one edge
//! of the catalog's concurrency protocol; the corruption tests in
//! `tests/model_corruption.rs` assert that `mv_model::explore` pins
//! every one of them to a failing schedule with a replayable seed —
//! the concurrency analogue of mv-verify's soundness corruption suite.
//!
//! The selector itself uses a raw std atomic with SeqCst on purpose:
//! consulting it must not create a schedule point or participate in the
//! modeled memory, or the mutation would perturb the very interleavings
//! it is supposed to expose.

// mv-lint: allow(MV201)
use std::sync::atomic::{AtomicU32, Ordering};

/// No mutation active (the default).
pub const NONE: u32 = 0;
/// Writers skip the writer mutex: two concurrent clone-modify-publish
/// sequences can interleave and one registration is lost.
pub const SKIP_WRITER_LOCK: u32 = 1;
/// `add_view` publishes without bumping the epochs of the view's
/// tables: cached results computed before the registration keep
/// matching the new stamp and are served stale.
pub const SKIP_EPOCH_BUMP_ON_ADD: u32 = 2;
/// Cache entries are stamped from the currently *published* snapshot at
/// insert time instead of the pinned snapshot the results were computed
/// from.
pub const STAMP_AFTER_PUBLISH: u32 = 3;
/// `remove_view` publishes without bumping the removed view's table
/// epochs: stale cache entries keep serving the dropped view.
pub const SKIP_EPOCH_BUMP_ON_REMOVE: u32 = 4;
/// The cache-miss counter is not recorded: the quiescent invariant
/// `cache_hits + cache_misses == invocations` breaks.
pub const SKIP_CACHE_MISS_STAT: u32 = 5;
/// `insert_plan` stamps the plan from the currently *published* snapshot
/// instead of using the ticket's stamp, read before the search: a
/// registration between probe and insert leaves a stale plan looking
/// fresh.
pub const PLAN_STAMP_AT_INSERT: u32 = 6;

static ACTIVE: AtomicU32 = AtomicU32::new(NONE);

/// Activate one mutation (or [`NONE`]). Test-only by construction: the
/// module does not exist outside `--cfg mv_model` builds.
pub fn set(mutation: u32) {
    ACTIVE.store(mutation, Ordering::SeqCst);
}

/// Is `mutation` the active one?
pub fn active(mutation: u32) -> bool {
    ACTIVE.load(Ordering::SeqCst) == mutation && mutation != NONE
}
