//! MV207 fixture: a state-corrupting hook on a library type, marked
//! `#[doc(hidden)]`. The attribute keeps it out of the docs, but any
//! caller can still reach it, and it ships in every release build. A
//! test that needs to damage the state belongs in a `#[cfg(test)]`
//! module of the crate that owns it.

pub struct Index {
    entries: Vec<u64>,
}

impl Index {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drop an entry the index still claims to hold. Tests only.
    #[doc(hidden)]
    pub fn evict_for_tests(&mut self) {
        self.entries.pop();
    }
}
