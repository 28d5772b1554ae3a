//! MV203 fixture: engine snapshot-state discipline violations. The
//! published snapshot may only be loaded through the `snapshot()`
//! accessor, and only published by `publish()`, which holds the writer
//! guard for its whole clone-modify-publish sequence.

impl Engine {
    /// Loads the published snapshot outside `snapshot()`.
    pub fn peek(&self) -> Arc<CatalogSnapshot> {
        self.shared.load()
    }

    /// Publishes without ever taking `writer_guard()`: two concurrent
    /// callers clone the same base snapshot and one update is lost.
    pub fn publish_racy(&self, next: CatalogSnapshot) {
        self.shared.store(Arc::new(next));
    }
}
